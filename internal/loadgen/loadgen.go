// Package loadgen is an open-loop, arrival-time-driven load
// generator: requests fire on a pre-generated schedule (from
// internal/workload's traffic shapes) regardless of how many are
// still in flight, and every latency is measured from the request's
// *scheduled* arrival, not from when the client managed to send it.
// That makes the recorded distribution coordinated-omission-safe —
// a stalled server inflates the tail of every request that was due
// during the stall, exactly as queueing users would experience it —
// where a closed-loop client (a pool of workers that each wait for a
// reply before sending again) silently stops offering load while it
// waits and hides the queue. cmd/capsnet-load is the one client in
// this module built on it.
//
// The package is deliberately thin — standard library plus the
// fixed-bucket histograms from internal/obs — so measurements
// reflect the server under test, not the client; pimcaps-vet's
// layercheck pins that diet.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pimcapsnet/internal/obs"
)

// DefaultLatencyBuckets mirror the server's request-latency layout
// with extra tail room: open-loop latencies include queueing delay,
// which under overload runs far past any closed-loop observation.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// DefaultTimeout bounds one request when Options.Timeout is zero.
const DefaultTimeout = 30 * time.Second

// Target issues one load request. Implementations must be safe for
// concurrent use: open-loop load fires from many goroutines at once.
type Target interface {
	// Do issues request i and returns its HTTP status code (0 for a
	// transport-level failure, alongside the error).
	Do(ctx context.Context, i int) (status int, err error)
}

// HTTPTarget posts pre-built bodies to one URL, rotating through them
// by request index.
type HTTPTarget struct {
	Client *http.Client
	URL    string
	Bodies [][]byte
	// ContentType defaults to application/json.
	ContentType string
	// Decorate, when set, mutates each request before it is sent
	// (deadline headers, auth, trace IDs).
	Decorate func(*http.Request)
}

// Do implements Target.
func (t *HTTPTarget) Do(ctx context.Context, i int) (int, error) {
	body := t.Bodies[i%len(t.Bodies)]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.URL, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	ct := t.ContentType
	if ct == "" {
		ct = "application/json"
	}
	req.Header.Set("Content-Type", ct)
	if t.Decorate != nil {
		t.Decorate(req)
	}
	resp, err := t.Client.Do(req)
	if err != nil {
		return 0, err
	}
	// A reply cut short is a transport failure whatever its status
	// line said: the client never got the answer.
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// Options configures one open-loop run.
type Options struct {
	// Schedule holds the arrival offsets in seconds from run start,
	// ascending (workload.Shape.Schedule produces these).
	Schedule []float64
	// Timeout bounds each request (DefaultTimeout when zero). A
	// timed-out request records its full latency as a failure — it is
	// precisely the observation closed-loop clients omit.
	Timeout time.Duration
	// Buckets overrides DefaultLatencyBuckets.
	Buckets []float64
}

// Result is the outcome of one open-loop run.
type Result struct {
	// Offered is how many arrivals the schedule held; Done is how
	// many were actually dispatched (smaller only when the context
	// was canceled mid-run).
	Offered, Done int
	// OK counts 2xx responses; Shed counts the load-control statuses
	// (429, 503, 504); Failed is everything else, transport errors
	// and timeouts included.
	OK, Shed, Failed int
	// Codes maps HTTP status (0 = transport error) to count.
	Codes map[int]int
	// Latency is seconds from *scheduled arrival* to completion —
	// the coordinated-omission-safe distribution.
	Latency *obs.Histogram
	// MaxLateness is the worst gap between an arrival's scheduled
	// and actual fire time, in seconds: the client-side fidelity
	// bound. Values far above a few milliseconds mean the generator
	// itself could not keep pace and the run should be discarded.
	MaxLateness float64
	// WallSeconds spans run start to last completion.
	WallSeconds float64
}

// Availability returns OK / Done: the fraction of dispatched
// requests that came back 2xx. Returns 1 for an empty run so an
// unloaded gate comparison reads as healthy.
func (r *Result) Availability() float64 {
	if r.Done == 0 {
		return 1
	}
	return float64(r.OK) / float64(r.Done)
}

// AchievedRate returns successful completions per wall-clock second.
func (r *Result) AchievedRate() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return float64(r.OK) / r.WallSeconds
}

// shedStatus reports whether an HTTP status is a load-control
// response rather than a success or a failure.
func shedStatus(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// Run replays the schedule against the target. It blocks until every
// dispatched request completes (or the per-request timeout fires) and
// never slows the schedule down for in-flight work: that open-loop
// property is what keeps the latency histogram honest about queueing.
func Run(ctx context.Context, target Target, opts Options) *Result {
	if len(opts.Schedule) == 0 {
		panic("loadgen: empty schedule")
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	buckets := opts.Buckets
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}

	res := &Result{
		Offered: len(opts.Schedule),
		Codes:   make(map[int]int),
		Latency: obs.NewHistogram(buckets...),
	}
	var mu sync.Mutex // guards Codes/OK/Shed/Failed/MaxLateness
	var wg sync.WaitGroup
	start := time.Now()

	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
dispatch:
	for i, at := range opts.Schedule {
		scheduled := start.Add(time.Duration(at * float64(time.Second)))
		if wait := time.Until(scheduled); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				break dispatch
			}
		} else if ctx.Err() != nil {
			break dispatch
		}
		res.Done++
		wg.Add(1)
		go func(i int, scheduled time.Time) {
			defer wg.Done()
			late := time.Since(scheduled).Seconds()
			reqCtx, cancel := context.WithTimeout(ctx, timeout)
			code, _ := target.Do(reqCtx, i)
			cancel()
			// Latency from the scheduled arrival: lateness in firing
			// (client backlog) and time on the wire both count.
			lat := time.Since(scheduled).Seconds()
			res.Latency.Observe(lat)
			mu.Lock()
			res.Codes[code]++
			switch {
			case code >= 200 && code < 300:
				res.OK++
			case shedStatus(code):
				res.Shed++
			default:
				res.Failed++
			}
			if late > res.MaxLateness {
				res.MaxLateness = late
			}
			mu.Unlock()
		}(i, scheduled)
	}
	wg.Wait()
	res.WallSeconds = time.Since(start).Seconds()
	return res
}

// String summarizes the run for log lines.
func (r *Result) String() string {
	return fmt.Sprintf("offered %d, done %d: %d ok, %d shed, %d failed; p50 %.4gs p99 %.4gs p999 %.4gs, max lateness %.4gs",
		r.Offered, r.Done, r.OK, r.Shed, r.Failed,
		r.Latency.Quantile(0.5), r.Latency.Quantile(0.99), r.Latency.Quantile(0.999), r.MaxLateness)
}
