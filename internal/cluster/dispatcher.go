package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/wire"
)

// DispatcherConfig tunes the routing front. Zero-value fields fall
// back to the documented defaults.
type DispatcherConfig struct {
	// Pool supplies replica snapshots (required) — usually a *Manager.
	Pool Pool
	// Placer scores ready replicas per request (zero value = defaults).
	Placer Placer
	// Metrics receives router counters; nil allocates a private set.
	Metrics *Metrics
	// Logger receives per-request debug records. Nil disables logging.
	Logger *slog.Logger
	// MaxAttempts is the per-request retry budget, counting the first
	// attempt. Default 4: with a probe interval of 250ms, one crashed
	// replica costs at most one wasted attempt before the prober
	// removes it, so 4 rides out two overlapping failures.
	MaxAttempts int
	// AttemptTimeout bounds one replica round trip. Default 30s (a
	// full queue ahead of the request must be allowed to drain).
	AttemptTimeout time.Duration
	// HedgeDelay is how long the first attempt may remain unanswered
	// before a hedge — a duplicate attempt on the next-best replica —
	// launches. 0 disables hedging. Default 500ms.
	HedgeDelay time.Duration
	// MaxHedges is the per-request hedging budget. Default 1.
	MaxHedges int
	// RetryAfterCap bounds how long a replica 429's Retry-After header
	// is honored before the next attempt. Default 1s.
	RetryAfterCap time.Duration
	// DefaultBudget, when positive, assigns requests arriving without a
	// deadline header an absolute deadline now+DefaultBudget, so every
	// downstream attempt is deadline-bounded. 0 (the default) leaves
	// headerless requests unbounded, preserving the pre-deadline
	// behavior.
	DefaultBudget time.Duration
	// ExpectedServiceTime is the router's estimate of one replica round
	// trip under normal load, used to veto hedges that cannot finish
	// inside the remaining deadline budget (a hedge needs HedgeDelay +
	// ExpectedServiceTime of runway). Default 100ms.
	ExpectedServiceTime time.Duration
	// Clock is where the dispatcher reads time and arms its hedge and
	// backoff timers; nil means obs.Wall. Tests pass an obs.ManualClock.
	Clock obs.Clock
	// Client performs replica requests; nil uses a private client.
	Client *http.Client
	// RequestsConfig sets up the request recorder behind
	// /debug/requests/{trace,flight}: routed requests record the root
	// route span plus one span per replica attempt (tagged with
	// replica/attempt/hedge/code), and the flight recorder also pins
	// requests whose deadline ran out. The zero value records no spans
	// and keeps the flight recorder off.
	obs.RequestsConfig
	// SLOTarget is the availability objective the SLO tracker burns
	// error budget against, in (0, 1). 0 means DefaultSLOTarget.
	SLOTarget float64
}

func (c DispatcherConfig) withDefaults() DispatcherConfig {
	if c.Metrics == nil {
		c.Metrics = NewMetrics()
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 4
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 500 * time.Millisecond
	}
	if c.MaxHedges == 0 {
		c.MaxHedges = 1
	}
	if c.RetryAfterCap == 0 {
		c.RetryAfterCap = time.Second
	}
	if c.ExpectedServiceTime == 0 {
		c.ExpectedServiceTime = 100 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Clock == nil {
		c.Clock = obs.Wall
	}
	return c
}

// Dispatcher is the router's HTTP front: it places each classify
// request on a replica via the Eq. 6–12 score, forwards it, and spends
// the retry and hedging budgets so replica faults cost attempts rather
// than client-visible errors.
type Dispatcher struct {
	cfg DispatcherConfig
	mux *http.ServeMux

	// requests records routed-request span timelines (the route span
	// and per-attempt spans); slo derives the rolling availability /
	// latency / burn gauges from terminal responses.
	requests *obs.Requests
	slo      *SLOTracker
}

// NewDispatcher builds the routing front over a pool.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	cfg = cfg.withDefaults()
	if cfg.Pool == nil {
		return nil, fmt.Errorf("cluster: DispatcherConfig.Pool is required")
	}
	if err := cfg.RequestsConfig.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	d := &Dispatcher{cfg: cfg, mux: http.NewServeMux(), requests: obs.NewRequests(cfg.RequestsConfig, cfg.Clock)}
	d.slo = NewSLOTracker(cfg.SLOTarget, cfg.Clock)
	cfg.Metrics.Collect(func(e *obs.Emitter) {
		collectReplicas(e, cfg.Pool)
		d.slo.collect(e)
	})
	d.mux.HandleFunc("/v1/classify", d.handleClassify)
	d.mux.HandleFunc("/v1/model", d.handleModel)
	d.mux.HandleFunc("/v1/replicas", d.handleReplicas)
	d.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	d.mux.HandleFunc("/readyz", d.handleReadyz)
	d.mux.Handle("/metrics", cfg.Metrics.Handler())
	d.mux.HandleFunc("/metrics/fleet", d.handleFleetMetrics)
	d.requests.Mount(d.mux)
	d.mux.HandleFunc("/debug/trace/fleet", d.handleFleetTrace)
	return d, nil
}

// Metrics returns the dispatcher's counter set.
func (d *Dispatcher) Metrics() *Metrics { return d.cfg.Metrics }

// Requests returns the dispatcher's request recorder.
func (d *Dispatcher) Requests() *obs.Requests { return d.requests }

// SLO returns the rolling SLO tracker.
func (d *Dispatcher) SLO() *SLOTracker { return d.slo }

// Handler returns the router's full HTTP surface.
func (d *Dispatcher) Handler() http.Handler { return d.mux }

func (d *Dispatcher) logger() *slog.Logger {
	if d.cfg.Logger != nil {
		return d.cfg.Logger
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// handleReadyz reports router readiness: dispatchable once at least
// one replica is, mirroring the replica body shape loosely (status +
// counts) so the same probing tools work one tier up.
func (d *Dispatcher) handleReadyz(w http.ResponseWriter, r *http.Request) {
	all := d.cfg.Pool.Snapshot()
	ready := 0
	for _, rep := range all {
		if rep.Ready {
			ready++
		}
	}
	status := "ok"
	code := http.StatusOK
	if ready == 0 {
		status = "no ready replicas"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status": status, "ready_replicas": ready, "replicas": len(all),
	})
}

// handleReplicas dumps the pool snapshot — the operator's view of the
// fleet (names, URLs, PIDs, restart counts, last probed load).
func (d *Dispatcher) handleReplicas(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(d.cfg.Pool.Snapshot())
}

// handleModel proxies the model descriptor from any ready replica —
// all replicas serve the same checkpoint, so the first one answers.
func (d *Dispatcher) handleModel(w http.ResponseWriter, r *http.Request) {
	ready := Ready(d.cfg.Pool)
	if len(ready) == 0 {
		http.Error(w, "no ready replicas", http.StatusServiceUnavailable)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ready[0].URL+"/v1/model", nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp, err := d.cfg.Client.Do(req)
	if err != nil {
		http.Error(w, "replica unreachable", http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// attemptResult is one replica round trip's outcome.
type attemptResult struct {
	replica string
	// code is the metric outcome label: the HTTP status, "error" for
	// transport failures, "corrupt" for invalid 200 bodies.
	code   string
	status int
	header http.Header
	body   []byte
	// ok marks a response the client may receive verbatim.
	ok bool
	// terminal marks a response that should not be retried even though
	// it failed (deterministic client errors: 400, 404, 413...).
	terminal bool
	// retryAfter carries a 429's backoff hint.
	retryAfter time.Duration
	// launchIdx indexes the launch bookkeeping inside one attempt, so
	// a result pairs back to its span even when span IDs are absent.
	launchIdx int
}

// send performs one classify round trip against a replica and
// classifies the outcome. A non-zero dl is propagated as the absolute
// deadline header so the replica can refuse or abort work the client
// will never read.
func (d *Dispatcher) send(ctx context.Context, rep ReplicaInfo, body []byte, traceID, parentSpan string, dl time.Time) attemptResult {
	res := attemptResult{replica: rep.Name}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.URL+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		res.code = "error"
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceIDHeader, traceID)
	if parentSpan != "" {
		// The attempt's span ID travels as the replica's parent span, so
		// the replica-side stage spans attribute to exactly this attempt
		// (retries and hedges each mint their own).
		req.Header.Set(obs.ParentSpanHeader, parentSpan)
	}
	if !dl.IsZero() {
		wire.SetDeadline(req.Header, dl)
	}
	resp, err := d.cfg.Client.Do(req)
	if err != nil {
		res.code = "error"
		return res
	}
	defer resp.Body.Close()
	// The reply is read at most one byte past the reply_limit the
	// replica advertises; 0 (unreported) keeps the unbounded read.
	limit := rep.Load.ReplyLimit
	var rd io.Reader = resp.Body
	if limit > 0 {
		rd = io.LimitReader(resp.Body, limit+1)
	}
	respBody, err := io.ReadAll(rd)
	if err != nil {
		res.code = "error"
		return res
	}
	res.status, res.header, res.body = resp.StatusCode, resp.Header, respBody
	res.code = strconv.Itoa(resp.StatusCode)
	if limit > 0 && int64(len(respBody)) > limit {
		// No reply this model can write is that long: like a corrupt
		// body it costs a retry and never reaches the client.
		res.code, res.body = "corrupt", nil
		return res
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if !wire.ValidClassifyReply(respBody) {
			// A corrupt response (truncated JSON, NaN probabilities)
			// costs a retry, never reaches the client.
			res.code = "corrupt"
			return res
		}
		res.ok = true
	case resp.StatusCode == http.StatusTooManyRequests:
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s >= 0 {
			res.retryAfter = time.Duration(s) * time.Second
		}
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The replica deterministically rejected the request body; a
		// different replica would too. Forward the rejection.
		res.terminal = true
	}
	return res
}

// attempt runs one placed attempt with the hedging budget: the primary
// request goes to rep; if it stays unanswered past HedgeDelay and the
// budget allows, a duplicate launches on alt, and whichever usable
// response lands first wins. hedgesLeft is decremented in place.
//
// A non-zero dl caps the attempt timeout at the remaining budget, and
// vetoes the hedge when the budget cannot cover HedgeDelay plus one
// ExpectedServiceTime — a hedge that cannot finish in time is pure
// load amplification with no chance of helping the client.
func (d *Dispatcher) attempt(ctx context.Context, rep ReplicaInfo, alt *ReplicaInfo, body []byte, traceID string, hedgesLeft *int, dl time.Time, t *obs.Trace, attemptNo int, rootSpan string) attemptResult {
	timeout := d.cfg.AttemptTimeout
	if !dl.IsZero() {
		if remaining := dl.Sub(d.cfg.Clock.Now()); remaining < timeout {
			timeout = remaining
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// launchRec tracks one launched round trip's span identity so its
	// attempt span lands on the trace whether the response arrives, is
	// abandoned mid-flight, or loses a hedge race.
	type launchRec struct {
		spanID  string
		replica string
		hedge   bool
		start   time.Time
		done    bool
	}
	var launches []*launchRec
	record := func(rec *launchRec, code string) {
		rec.done = true
		if t == nil {
			return
		}
		t.AddSpan(obs.Span{
			Name: "attempt", Iter: -1, Start: rec.start, End: d.cfg.Clock.Now(),
			ID: rec.spanID, Parent: rootSpan,
			Tags: map[string]string{
				"replica": rec.replica,
				"attempt": strconv.Itoa(attemptNo),
				"hedge":   strconv.FormatBool(rec.hedge),
				"code":    code,
			},
		})
	}
	// Stragglers (the cancelled loser of a hedge race, or a launch
	// still in flight when the deadline kills the attempt) are closed
	// out here so every launch leaves exactly one span.
	defer func() {
		for _, rec := range launches {
			if !rec.done {
				record(rec, "abandoned")
			}
		}
	}()

	resCh := make(chan attemptResult, 2)
	launch := func(target ReplicaInfo, hedge bool) {
		rec := &launchRec{replica: target.Name, hedge: hedge, start: d.cfg.Clock.Now()}
		if t != nil {
			rec.spanID = obs.NewID()
		}
		idx := len(launches)
		launches = append(launches, rec)
		go func() {
			res := d.send(ctx, target, body, traceID, rec.spanID, dl)
			res.launchIdx = idx
			resCh <- res
		}()
	}
	launch(rep, false)
	launched := 1

	var hedgeTimer <-chan time.Time
	if d.cfg.HedgeDelay > 0 && alt != nil && *hedgesLeft > 0 {
		if dl.IsZero() || dl.Sub(d.cfg.Clock.Now()) >= d.cfg.HedgeDelay+d.cfg.ExpectedServiceTime {
			// A stopped timer (not time.After) so the common case — the
			// primary answers first — releases the timer immediately
			// instead of pinning it for the full hedge delay.
			hedge := d.cfg.Clock.NewTimer(d.cfg.HedgeDelay)
			defer hedge.Stop()
			hedgeTimer = hedge.C()
		} else {
			d.cfg.Metrics.HedgesSkipped.Inc()
			d.logger().Debug("hedge skipped, deadline too close",
				slog.String("trace_id", traceID),
				slog.Duration("remaining", dl.Sub(d.cfg.Clock.Now())))
		}
	}

	var last attemptResult
	for received := 0; received < launched; {
		select {
		case res := <-resCh:
			received++
			d.cfg.Metrics.ReplicaRequests.With(res.replica, res.code).Inc()
			record(launches[res.launchIdx], res.code)
			if res.ok || res.terminal {
				// cancel() aborts the straggler attempt on return.
				return res
			}
			last = res
		case <-hedgeTimer:
			hedgeTimer = nil
			*hedgesLeft--
			d.cfg.Metrics.Hedges.Inc()
			d.logger().Debug("hedging attempt",
				slog.String("trace_id", traceID),
				slog.String("primary", rep.Name),
				slog.String("hedge", alt.Name))
			launch(*alt, true)
			launched++
		}
	}
	return last
}

// handleClassify is the routed classify path: read the body once, then
// spend the retry budget placing and re-placing it until a valid
// replica response (or a deterministic rejection) comes back.
func (d *Dispatcher) handleClassify(w http.ResponseWriter, r *http.Request) {
	start := d.cfg.Clock.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	traceID, t := d.requests.Start(r.Header, start)
	w.Header().Set(obs.TraceIDHeader, traceID)

	// The root route span gets an ID so attempt spans (and,
	// transitively, replica-side stage spans) hang under it.
	rootSpan := ""
	if t != nil {
		rootSpan = obs.NewID()
	}
	// finish closes out one terminal (client-visible) outcome: the
	// route span, the request record, and the SLO window observation.
	finish := func(status int, reasons ...string) {
		end := d.cfg.Clock.Now()
		if t != nil {
			t.AddSpan(obs.Span{
				Name: "route", Iter: -1, Start: start, End: end, ID: rootSpan,
				Tags: map[string]string{"code": strconv.Itoa(status)},
			})
		}
		d.requests.Finish(t, status, start, end, 0, reasons...)
		d.slo.Observe(status, end.Sub(start))
	}

	// The body is read once, bounded by the largest body_limit a ready
	// replica advertises: a body every replica would refuse with 413 is
	// refused here, before it is buffered whole or forwarded. Replicas
	// that report no bound (0) leave the read unbounded.
	var limit int64
	for _, rep := range Ready(d.cfg.Pool) {
		limit = max(limit, rep.Load.BodyLimit)
	}
	if limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		code, msg := http.StatusBadRequest, "reading body"
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code, msg = http.StatusRequestEntityTooLarge, fmt.Sprintf("body over %d bytes, the replicas' classify bound", tooLarge.Limit)
		}
		finish(code)
		http.Error(w, msg, code)
		return
	}

	// Deadline propagation: honor a client-supplied absolute deadline,
	// or assign one from DefaultBudget so the whole retry/hedge ladder
	// below is budget-bounded. dl stays zero (unbounded) only when the
	// client sent no header and no default budget is configured.
	dl, hasDL, err := wire.DeadlineFromRequest(r.Header)
	if err != nil {
		finish(http.StatusBadRequest)
		http.Error(w, fmt.Sprintf("invalid %s header: %v", wire.DeadlineHeader, err), http.StatusBadRequest)
		return
	}
	if !hasDL && d.cfg.DefaultBudget > 0 {
		dl, hasDL = d.cfg.Clock.Now().Add(d.cfg.DefaultBudget), true
	}

	key := Key(body)
	hedgesLeft := d.cfg.MaxHedges
	tried := make(map[string]bool)
	deadlineHit := false
	var last attemptResult
	for attemptNo := 1; attemptNo <= d.cfg.MaxAttempts; attemptNo++ {
		// The budget check precedes the retry counter: an attempt that
		// cannot start before the deadline is never fired (or counted).
		if hasDL && !d.cfg.Clock.Now().Before(dl) {
			deadlineHit = true
			break
		}
		if attemptNo > 1 {
			d.cfg.Metrics.Retries.Inc()
		}
		candidates := Ready(d.cfg.Pool)
		// Prefer replicas this request hasn't burned yet; fall back to
		// the full ready set once everyone has failed it (a restarted
		// replica may have recovered by then).
		fresh := make([]ReplicaInfo, 0, len(candidates))
		for _, c := range candidates {
			if !tried[c.Name] {
				fresh = append(fresh, c)
			}
		}
		if len(fresh) == 0 {
			fresh = candidates
		}
		if len(fresh) == 0 {
			// Nothing dispatchable: burn the attempt on a short wait
			// for the manager to bring a replica back.
			last = attemptResult{code: "no_replicas"}
			if !d.backoff(r.Context(), 50*time.Millisecond, dl) {
				break
			}
			continue
		}
		pick := d.cfg.Placer.Pick(key, fresh)
		rep := fresh[pick]
		tried[rep.Name] = true
		var alt *ReplicaInfo
		if len(fresh) > 1 {
			rest := append(append([]ReplicaInfo{}, fresh[:pick]...), fresh[pick+1:]...)
			a := rest[d.cfg.Placer.Pick(key, rest)]
			alt = &a
		}

		res := d.attempt(r.Context(), rep, alt, body, traceID, &hedgesLeft, dl, t, attemptNo, rootSpan)
		if res.ok || res.terminal {
			elapsed := d.cfg.Clock.Now().Sub(start)
			d.cfg.Metrics.Latency.Observe(elapsed.Seconds())
			finish(res.status)
			d.logger().Debug("classify routed",
				slog.String("trace_id", traceID),
				slog.String("replica", res.replica),
				slog.Int("status", res.status),
				slog.Int("attempts", attemptNo),
				slog.Duration("elapsed", elapsed))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(res.status)
			w.Write(res.body)
			return
		}
		last = res
		if res.retryAfter > 0 && !d.backoff(r.Context(), min(res.retryAfter, d.cfg.RetryAfterCap), dl) {
			break
		}
	}

	// Budget exhausted. When the request's deadline ran out first, 504
	// names the real failure (out of time, not out of replicas) and the
	// client learns there is no point retrying this request.
	d.cfg.Metrics.Latency.Observe(d.cfg.Clock.Now().Sub(start).Seconds())
	if deadlineHit {
		d.cfg.Metrics.DeadlineExhausted.Inc()
		finish(http.StatusGatewayTimeout, obs.FlightReasonDeadlineExhausted)
		d.logger().Warn("classify deadline exhausted",
			slog.String("trace_id", traceID),
			slog.String("last_code", last.code))
		http.Error(w, "request deadline exhausted before a replica responded", http.StatusGatewayTimeout)
		return
	}
	// The fleet is saturated or down; tell the client to back off,
	// mirroring the replica 429 contract one tier up.
	d.logger().Warn("classify budget exhausted",
		slog.String("trace_id", traceID),
		slog.String("last_code", last.code),
		slog.Int("attempts", d.cfg.MaxAttempts))
	if last.code == "429" {
		finish(http.StatusTooManyRequests)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "all replicas saturated", http.StatusTooManyRequests)
		return
	}
	finish(http.StatusBadGateway)
	http.Error(w, "no replica produced a valid response", http.StatusBadGateway)
}

// backoff waits out wait on the dispatcher's clock, truncated to the
// request's remaining deadline budget (a wait past the deadline is
// pointless: the loop's deadline check then ends the request; a zero
// dl is unbounded). It returns false at once if the client goes away.
func (d *Dispatcher) backoff(ctx context.Context, wait time.Duration, dl time.Time) bool {
	if !dl.IsZero() {
		wait = max(0, min(wait, dl.Sub(d.cfg.Clock.Now())))
	}
	t := d.cfg.Clock.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-ctx.Done():
		return false
	}
}
