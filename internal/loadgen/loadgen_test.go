package loadgen

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// funcTarget adapts a function to Target.
type funcTarget func(ctx context.Context, i int) (int, error)

func (f funcTarget) Do(ctx context.Context, i int) (int, error) { return f(ctx, i) }

// uniformSchedule returns n arrivals spaced dt seconds apart starting
// at 0.
func uniformSchedule(n int, dt float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * dt
	}
	return out
}

// TestRunOpenLoopKeepsPace: with an instant target, the run's wall
// time tracks the schedule span (the generator is arrival-driven, not
// completion-driven) and every request lands as OK.
func TestRunOpenLoopKeepsPace(t *testing.T) {
	res := Run(context.Background(), funcTarget(func(context.Context, int) (int, error) {
		return 200, nil
	}), Options{Schedule: uniformSchedule(50, 0.002)})

	if res.OK != 50 || res.Done != 50 || res.Offered != 50 {
		t.Fatalf("offered/done/ok = %d/%d/%d, want 50/50/50", res.Offered, res.Done, res.OK)
	}
	span := 49 * 0.002 // last scheduled arrival
	if res.WallSeconds < span || res.WallSeconds > span+0.5 {
		t.Errorf("wall %gs for a %gs schedule", res.WallSeconds, span)
	}
	if res.Availability() < 0.999 {
		t.Errorf("availability %g, want 1", res.Availability())
	}
}

// TestRunCoordinatedOmissionSafe is the package's reason to exist: a
// target that stalls must NOT slow the arrival schedule down, and
// every request due during the stall must record the queueing delay
// it suffered. A closed-loop client here would report one slow
// request and n−1 fast ones; the open-loop histogram must show a
// whole cohort delayed.
func TestRunCoordinatedOmissionSafe(t *testing.T) {
	const stall = 300 * time.Millisecond
	var concurrent, peak atomic.Int64
	release := make(chan struct{})
	res := make(chan *Result, 1)
	go func() {
		res <- Run(context.Background(), funcTarget(func(ctx context.Context, i int) (int, error) {
			c := concurrent.Add(1)
			defer concurrent.Add(-1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			<-release // every request blocks until the stall lifts
			return 200, nil
		}), Options{Schedule: uniformSchedule(30, 0.01)}) // 30 arrivals over 290ms
	}()
	time.Sleep(stall)
	close(release)
	r := <-res

	// Open loop: all 30 must have been dispatched concurrently during
	// the stall, not serialized behind the first.
	if got := peak.Load(); got < 25 {
		t.Errorf("peak in-flight %d, want ~30: the generator slowed down for in-flight work", got)
	}
	if r.OK != 30 {
		t.Fatalf("ok %d, want 30", r.OK)
	}
	// Every request due in the first ~stall window must have recorded
	// its share of the stall: the median latency spans a large part of
	// it instead of collapsing to the per-request service time.
	if p50 := r.Latency.Quantile(0.5); p50 < 0.1 {
		t.Errorf("p50 %gs under a %v stall — queueing delay was omitted", p50, stall)
	}
	if r.MaxLateness > 0.05 {
		t.Errorf("max dispatch lateness %gs: generator fell behind its own schedule", r.MaxLateness)
	}
}

// TestRunClassifiesStatuses: 2xx → OK, 429/503/504 → Shed, the rest →
// Failed, with the per-code map intact.
func TestRunClassifiesStatuses(t *testing.T) {
	codes := []int{200, 200, 429, 503, 504, 500, 400, 0}
	res := Run(context.Background(), funcTarget(func(_ context.Context, i int) (int, error) {
		return codes[i], nil
	}), Options{Schedule: uniformSchedule(len(codes), 0.001)})

	if res.OK != 2 || res.Shed != 3 || res.Failed != 3 {
		t.Fatalf("ok/shed/failed = %d/%d/%d, want 2/3/3", res.OK, res.Shed, res.Failed)
	}
	if res.Codes[200] != 2 || res.Codes[429] != 1 || res.Codes[0] != 1 {
		t.Fatalf("code map %v", res.Codes)
	}
	if got, want := res.Availability(), 0.25; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("availability %g, want %g", got, want)
	}
}

// TestRunContextCancel: canceling mid-schedule stops dispatching but
// the result still accounts for what was sent.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := atomic.Int64{}
	done := make(chan *Result, 1)
	go func() {
		done <- Run(ctx, funcTarget(func(context.Context, int) (int, error) {
			n.Add(1)
			return 200, nil
		}), Options{Schedule: uniformSchedule(1000, 0.01)}) // 10s schedule
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if r.Done >= r.Offered {
			t.Errorf("done %d of %d offered despite cancellation", r.Done, r.Offered)
		}
		if r.Done != int(n.Load()) {
			t.Errorf("done %d but target saw %d", r.Done, n.Load())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// TestHTTPTarget drives the real HTTP path against a local server,
// including body rotation and the Decorate hook.
func TestHTTPTarget(t *testing.T) {
	var sawHeader atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Probe") == "1" {
			sawHeader.Store(true)
		}
		w.WriteHeader(200)
	}))
	defer srv.Close()

	target := &HTTPTarget{
		Client:   srv.Client(),
		URL:      srv.URL,
		Bodies:   [][]byte{[]byte(`{"a":1}`), []byte(`{"a":2}`)},
		Decorate: func(r *http.Request) { r.Header.Set("X-Probe", "1") },
	}
	res := Run(context.Background(), target, Options{Schedule: uniformSchedule(10, 0.001)})
	if res.OK != 10 {
		t.Fatalf("ok %d, want 10: %v", res.OK, res.Codes)
	}
	if !sawHeader.Load() {
		t.Error("Decorate hook never ran")
	}
}

// TestHTTPTargetTruncatedReply: a 200 whose body ends before its
// declared Content-Length is a transport failure, not a success — the
// client never received the answer.
func TestHTTPTargetTruncatedReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Read the request head, then promise 100 bytes and send 5.
		br := bufio.NewReader(conn)
		if _, err := http.ReadRequest(br); err != nil {
			return
		}
		io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\nContent-Type: application/json\r\n\r\n{\"cla")
	}()

	target := &HTTPTarget{
		Client: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		URL:    "http://" + ln.Addr().String() + "/v1/classify",
		Bodies: [][]byte{[]byte(`{}`)},
	}
	code, err := target.Do(context.Background(), 0)
	<-served
	if code != 0 || err == nil {
		t.Fatalf("Do = (%d, %v), want (0, error) for a truncated 200", code, err)
	}
}
