package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/trace"
)

// homedBody returns a classify body whose placement home among the
// pool's ready replicas is the named one.
func homedBody(t *testing.T, pool Pool, name string) string {
	t.Helper()
	for i := 0; i < 1024; i++ {
		b := `{"image":[0.` + strings.Repeat("7", i+1) + `]}`
		if Ready(pool)[Home(Key([]byte(b)), Ready(pool))].Name == name {
			return b
		}
	}
	t.Fatalf("no probe body homed on %s", name)
	return ""
}

// attemptSpans filters a trace's spans down to the per-attempt spans.
func attemptSpans(t *obs.Trace) []obs.Span {
	var out []obs.Span
	for _, s := range t.Spans() {
		if s.Name == "attempt" {
			out = append(out, s)
		}
	}
	return out
}

// TestDispatchRetryTraceAttribution homes a request on a failing
// replica so the retry lands on the healthy one, and asserts the retry
// renders as sibling attempt spans: each with its own span ID,
// parented on the route span, tagged with the replica, the attempt
// ordinal, and the outcome.
func TestDispatchRetryTraceAttribution(t *testing.T) {
	_, repBad := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	_, repGood := fakeReplica(t, "r1", okHandler(nil))
	pool := &staticPool{reps: []ReplicaInfo{repBad, repGood}}
	d := newTestDispatcher(t, DispatcherConfig{
		Pool: pool, MaxAttempts: 3, HedgeDelay: -1, TraceSample: 1,
	})

	w := classify(t, d, homedBody(t, pool, "r0"), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	id := w.Header().Get(obs.TraceIDHeader)
	traces := d.Tracer().Find(id)
	if len(traces) != 1 {
		t.Fatalf("ring retained %d traces for %s, want 1", len(traces), id)
	}
	tr := traces[0]

	var root obs.Span
	for _, s := range tr.Spans() {
		if s.Name == "route" {
			root = s
			break
		}
	}
	if root.ID == "" {
		t.Fatalf("no identified route span in %+v", tr.Spans())
	}
	if root.Tags["code"] != "200" {
		t.Fatalf("route span code = %q, want 200", root.Tags["code"])
	}

	attempts := attemptSpans(tr)
	if len(attempts) != 2 {
		t.Fatalf("got %d attempt spans, want 2 (failed + retried): %+v", len(attempts), attempts)
	}
	wantByOrdinal := map[string]struct{ code, replica string }{
		"1": {"500", "r0"},
		"2": {"200", "r1"},
	}
	seenIDs := map[string]bool{}
	for _, s := range attempts {
		if s.ID == "" {
			t.Fatalf("attempt span has no span ID: %+v", s)
		}
		if seenIDs[s.ID] {
			t.Fatalf("attempt span ID %s reused", s.ID)
		}
		seenIDs[s.ID] = true
		if s.Parent != root.ID {
			t.Fatalf("attempt span parent = %q, want route span %q", s.Parent, root.ID)
		}
		if s.Tags["hedge"] != "false" {
			t.Fatalf("retry attempt tagged hedge=%q, want false", s.Tags["hedge"])
		}
		want, ok := wantByOrdinal[s.Tags["attempt"]]
		if !ok {
			t.Fatalf("unexpected attempt ordinal %q", s.Tags["attempt"])
		}
		if s.Tags["code"] != want.code || s.Tags["replica"] != want.replica {
			t.Fatalf("attempt %s = {code %q, replica %q}, want %+v",
				s.Tags["attempt"], s.Tags["code"], s.Tags["replica"], want)
		}
		delete(wantByOrdinal, s.Tags["attempt"])
	}
	if len(wantByOrdinal) != 0 {
		t.Fatalf("missing attempt ordinals: %v", wantByOrdinal)
	}
}

// TestDispatchHedgeTraceAttribution stalls the primary replica so the
// hedge fires, and asserts the hedge renders as a sibling span tagged
// hedge=true while the abandoned primary is closed out explicitly.
func TestDispatchHedgeTraceAttribution(t *testing.T) {
	release := make(chan struct{})
	_, repSlow := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		io.ReadAll(r.Body)
		select {
		case <-release: // stalled until test end
		case <-r.Context().Done(): // or until the router abandons us
		}
	})
	_, repFast := fakeReplica(t, "r1", okHandler(nil))
	// Registered after the servers, so LIFO cleanup unblocks the stalled
	// handler before httptest.Server.Close waits on it.
	t.Cleanup(func() { close(release) })
	pool := &staticPool{reps: []ReplicaInfo{repSlow, repFast}}
	d := newTestDispatcher(t, DispatcherConfig{
		Pool: pool, HedgeDelay: 30 * time.Millisecond, TraceSample: 1,
	})

	w := classify(t, d, homedBody(t, pool, "r0"), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via hedge", w.Code)
	}
	id := w.Header().Get(obs.TraceIDHeader)
	traces := d.Tracer().Find(id)
	if len(traces) != 1 {
		t.Fatalf("ring retained %d traces, want 1", len(traces))
	}
	attempts := attemptSpans(traces[0])
	if len(attempts) != 2 {
		t.Fatalf("got %d attempt spans, want 2 (primary + hedge): %+v", len(attempts), attempts)
	}
	var sawHedge, sawAbandoned bool
	for _, s := range attempts {
		if s.Tags["attempt"] != "1" {
			t.Fatalf("hedge race spans must share attempt ordinal 1, got %q", s.Tags["attempt"])
		}
		if s.Tags["hedge"] == "true" {
			sawHedge = true
			if s.Tags["code"] != "200" || s.Tags["replica"] != "r1" {
				t.Fatalf("hedge span = %v, want code 200 on r1", s.Tags)
			}
		}
		if s.Tags["code"] == "abandoned" {
			sawAbandoned = true
			if s.Tags["replica"] != "r0" {
				t.Fatalf("abandoned span replica = %q, want r0", s.Tags["replica"])
			}
		}
	}
	if !sawHedge || !sawAbandoned {
		t.Fatalf("want one hedge=true span and one abandoned primary, got %+v", attempts)
	}
}

// TestRouterFlightRecorder exercises the router-side tail sampler: a
// request that exhausts its replicas ends 502 and must be pinned with
// its full attempt-span set; routed 200s must not occupy slots.
func TestRouterFlightRecorder(t *testing.T) {
	var mode atomic.Int64 // 0 = fail, 1 = ok
	_, rep := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		if mode.Load() == 1 {
			okHandler(nil)(w, r)
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	d := newTestDispatcher(t, DispatcherConfig{
		Pool: &staticPool{reps: []ReplicaInfo{rep}}, MaxAttempts: 2, HedgeDelay: -1,
		FlightBuffer: 8,
	})

	w := classify(t, d, `{"image":[0.5]}`, nil)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", w.Code)
	}
	badID := w.Header().Get(obs.TraceIDHeader)

	mode.Store(1)
	for i := 0; i < 5; i++ {
		if w := classify(t, d, `{"image":[0.5]}`, nil); w.Code != http.StatusOK {
			t.Fatalf("status %d, want 200", w.Code)
		}
	}

	entries := d.Flight().Entries()
	if len(entries) != 1 {
		t.Fatalf("flight recorder retained %d entries, want 1 (only the 502)", len(entries))
	}
	e := entries[0]
	if e.Trace == nil || e.Trace.ID != badID {
		t.Fatalf("pinned trace = %v, want ID %s", e.Trace, badID)
	}
	if e.Status != http.StatusBadGateway {
		t.Fatalf("pinned status = %d, want 502", e.Status)
	}
	found := false
	for _, reason := range e.Reasons {
		if reason == obs.FlightReasonStatus5xx {
			found = true
		}
	}
	if !found {
		t.Fatalf("pin reasons %v missing %s", e.Reasons, obs.FlightReasonStatus5xx)
	}
	// The pinned trace has both attempt spans even though the counter
	// sampler (sample rate 0) never chose it for the ring.
	if got := len(attemptSpans(e.Trace)); got != 2 {
		t.Fatalf("pinned trace has %d attempt spans, want 2", got)
	}
}

// TestFleetTraceEndpointMergesRouterAndReplica exercises
// /debug/trace/fleet against a fake replica that serves span
// fragments, asserting the merged output is valid Chrome trace JSON
// with distinct process tracks and attempt-tag inheritance onto the
// replica's stage spans.
func TestFleetTraceEndpointMergesRouterAndReplica(t *testing.T) {
	var lastClassify atomic.Value // "traceID|parentSpan"
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", func(w http.ResponseWriter, r *http.Request) {
		lastClassify.Store(r.Header.Get(obs.TraceIDHeader) + "|" + r.Header.Get(obs.ParentSpanHeader))
		okHandler(nil)(w, r)
	})
	mux.HandleFunc("/debug/requests/trace", func(w http.ResponseWriter, r *http.Request) {
		stored, _ := lastClassify.Load().(string)
		parts := strings.SplitN(stored, "|", 2)
		if len(parts) != 2 || r.URL.Query().Get("trace") != parts[0] || r.URL.Query().Get("format") != "spans" {
			http.NotFound(w, r)
			return
		}
		tr := &obs.Trace{ID: parts[0], Start: time.Now()}
		tr.SetParent(parts[1])
		now := time.Now()
		tr.Add("forward", -1, now, now.Add(time.Millisecond))
		w.Header().Set("Content-Type", "application/json")
		obs.WriteFragments(w, []*obs.Trace{tr})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	rep := ReplicaInfo{Name: "r0", URL: srv.URL, Ready: true}
	d := newTestDispatcher(t, DispatcherConfig{
		Pool: &staticPool{reps: []ReplicaInfo{rep}}, MaxAttempts: 2, HedgeDelay: -1,
		TraceSample: 1,
	})

	w := classify(t, d, `{"image":[0.5]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	id := w.Header().Get(obs.TraceIDHeader)

	fw := httptest.NewRecorder()
	d.Handler().ServeHTTP(fw, httptest.NewRequest(http.MethodGet, "/debug/trace/fleet?trace="+id, nil))
	if fw.Code != http.StatusOK {
		t.Fatalf("fleet trace status %d, body %s", fw.Code, fw.Body.String())
	}
	log, err := trace.ReadJSON(fw.Body)
	if err != nil {
		t.Fatalf("fleet trace is not valid Chrome trace JSON: %v", err)
	}
	procs := map[string]int{}
	var replicaSpanArgs map[string]any
	for _, e := range log.Events() {
		if e.Ph == "M" && e.Name == "process_name" {
			name, _ := e.Args["name"].(string)
			procs[name] = e.PID
		}
		if e.Ph == "X" && e.Name == "forward" {
			replicaSpanArgs = e.Args
		}
		if e.TS < 0 {
			t.Fatalf("event %q has negative ts %v (epoch rebase broken)", e.Name, e.TS)
		}
	}
	if _, ok := procs["router"]; !ok {
		t.Fatalf("merged trace missing router process track: %v", procs)
	}
	if _, ok := procs["replica-0"]; !ok {
		t.Fatalf("merged trace missing replica-0 process track: %v", procs)
	}
	if procs["router"] == procs["replica-0"] {
		t.Fatalf("router and replica share pid %d", procs["router"])
	}
	if replicaSpanArgs == nil {
		t.Fatalf("replica forward span missing from merged trace")
	}
	// Attribution inheritance: the replica's stage span carries the
	// launching attempt's tags.
	if replicaSpanArgs["attempt"] != "1" || replicaSpanArgs["hedge"] != "false" {
		t.Fatalf("replica span did not inherit attempt tags: %v", replicaSpanArgs)
	}
}

// TestSLOTrackerWindows verifies availability, burn rate, and window
// expiry against an injected clock.
func TestSLOTrackerWindows(t *testing.T) {
	clk := obs.NewManualClock(time.Unix(1_000_000, 0))
	s := NewSLOTracker(0.99, clk)

	for i := 0; i < 98; i++ {
		s.Observe(http.StatusOK, 10*time.Millisecond)
	}
	s.Observe(http.StatusInternalServerError, 50*time.Millisecond)
	s.Observe(http.StatusGatewayTimeout, 5*time.Second)

	ratio, total := s.Availability(time.Minute)
	if total != 100 {
		t.Fatalf("window total = %d, want 100", total)
	}
	if ratio != 0.98 {
		t.Fatalf("availability = %g, want 0.98", ratio)
	}
	// 2% errors against a 1% budget: burning 2x.
	if br := s.BurnRate(time.Minute); br < 1.99 || br > 2.01 {
		t.Fatalf("burn rate = %g, want ≈2", br)
	}
	if p99 := s.LatencyP99(time.Minute); p99 <= 0 {
		t.Fatalf("p99 = %g, want > 0", p99)
	}
	// 4xx and 429 spend no budget.
	s.Observe(http.StatusTooManyRequests, time.Millisecond)
	s.Observe(http.StatusBadRequest, time.Millisecond)
	if ratio, _ := s.Availability(time.Minute); ratio <= 0.98 {
		t.Fatalf("availability fell to %g after non-5xx responses", ratio)
	}

	// The 1m window forgets, the 10m window remembers.
	clk.Advance(2 * time.Minute)
	if _, total := s.Availability(time.Minute); total != 0 {
		t.Fatalf("1m window still holds %d observations after 2m", total)
	}
	if ratio, total := s.Availability(10 * time.Minute); total == 0 || ratio >= 1 {
		t.Fatalf("10m window lost its observations (ratio %g, total %d)", ratio, total)
	}
	// Empty window: clean slate, zero burn.
	if br := s.BurnRate(time.Minute); br != 0 {
		t.Fatalf("empty-window burn rate = %g, want 0", br)
	}
}
