package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// get serves one GET against mux and returns the recorder.
func get(mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// doneIDs returns the trace IDs of a Chrome trace body's request_done
// markers, in order: one per exported request.
func doneIDs(t *testing.T, body string) []string {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decoding Chrome trace: %v\n%s", err, body)
	}
	var ids []string
	for _, e := range doc.TraceEvents {
		if e.Name == "request_done" {
			ids = append(ids, e.Args["trace_id"].(string))
		}
	}
	return ids
}

// record runs one request through r: started with the given trace ID
// header, one span, finished with status.
func record(r *Requests, clk *ManualClock, id string, status int) *Trace {
	h := http.Header{}
	h.Set(TraceIDHeader, id)
	start := clk.Now()
	got, t := r.Start(h, start)
	if got != id {
		panic("Start ignored X-Trace-Id")
	}
	clk.Advance(time.Millisecond)
	t.Add("work", -1, start, clk.Now())
	r.Finish(t, status, start, clk.Now(), 0)
	return t
}

// TestRequestsHandlers pins the /debug/requests contract both tiers
// serve: ?last bounds, the ?trace union over ring and flight pins
// deduplicated, the spans format, and 404 with the flight recorder off.
func TestRequestsHandlers(t *testing.T) {
	clk := NewManualClock(time.Unix(1_700_000_000, 0))
	// Every second request is ring-sampled; the flight recorder pins
	// every 5xx, sampled or not.
	r := NewRequests(RequestsConfig{TraceSample: 0.5, TraceBuffer: 8, FlightBuffer: 4}, clk)
	mux := http.NewServeMux()
	r.Mount(mux)

	pinnedOnly := record(r, clk, "bad", 500) // unsampled: pins only
	ringAndPin := record(r, clk, "bad", 500) // sampled: ring and pins
	record(r, clk, "ok1", 200)               // unsampled, not pinned: gone
	record(r, clk, "ok2", 200)               // sampled
	if pinnedOnly.Sampled() || !ringAndPin.Sampled() {
		t.Fatalf("fixture sampling off: %v %v", pinnedOnly.Sampled(), ringAndPin.Sampled())
	}

	w := get(mux, "/debug/requests/trace?last=1")
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("?last=1: %d %q", w.Code, w.Header().Get("Content-Type"))
	}
	if got := doneIDs(t, w.Body.String()); len(got) != 1 || got[0] != "ok2" {
		t.Fatalf("?last=1 exported %v, want [ok2]", got)
	}
	if got := doneIDs(t, get(mux, "/debug/requests/trace").Body.String()); strings.Join(got, ",") != "bad,ok2" {
		t.Fatalf("default export %v, want the whole ring [bad ok2]", got)
	}
	for _, q := range []string{"last=zero", "last=0", "last=-2"} {
		if w := get(mux, "/debug/requests/trace?"+q); w.Code != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, w.Code)
		}
	}

	// ?trace=bad finds the ring copy and the pin-only copy, once each,
	// although the ring copy is also pinned.
	if got := doneIDs(t, get(mux, "/debug/requests/trace?trace=bad").Body.String()); len(got) != 2 {
		t.Fatalf("?trace=bad exported %d requests, want 2 (ring ∪ pins, deduplicated)", len(got))
	}
	if got := r.FindTraces("bad"); len(got) != 2 || got[0] != ringAndPin || got[1] != pinnedOnly {
		t.Fatalf("FindTraces(bad) = %v, want [ring copy, pin-only copy]", got)
	}
	w = get(mux, "/debug/requests/trace?trace=bad&format=spans")
	var frags FragmentDoc
	if err := json.Unmarshal(w.Body.Bytes(), &frags); err != nil {
		t.Fatalf("decoding fragments: %v", err)
	}
	if len(frags.Fragments) != 2 {
		t.Fatalf("spans format returned %d fragments, want 2", len(frags.Fragments))
	}
	for _, f := range frags.Fragments {
		if f.TraceID != "bad" || len(f.Spans) != 1 || f.Spans[0].Name != "work" {
			t.Fatalf("fragment %+v, want one work span of trace bad", f)
		}
	}
	if got := r.FindTraces("ok1"); len(got) != 0 {
		t.Fatalf("unsampled, unpinned request retained: %v", got)
	}

	var flight struct {
		Pinned  uint64 `json:"pinned_total"`
		Entries []struct {
			TraceID string `json:"trace_id"`
		} `json:"entries"`
	}
	w = get(mux, "/debug/requests/flight")
	if err := json.Unmarshal(w.Body.Bytes(), &flight); err != nil || w.Code != http.StatusOK {
		t.Fatalf("flight: %d %v", w.Code, err)
	}
	if flight.Pinned != 2 || len(flight.Entries) != 2 {
		t.Fatalf("flight doc %+v, want the two 5xx pinned", flight)
	}

	// Flight recorder off: the ring alone answers ?trace, and the
	// flight endpoint is absent.
	off := NewRequests(RequestsConfig{TraceSample: 1}, clk)
	offMux := http.NewServeMux()
	off.Mount(offMux)
	record(off, clk, "x", 500)
	if w := get(offMux, "/debug/requests/flight"); w.Code != http.StatusNotFound {
		t.Fatalf("flight disabled: status %d, want 404", w.Code)
	}
	if got := off.FindTraces("x"); len(got) != 1 {
		t.Fatalf("flight off: FindTraces(x) = %d traces, want 1", len(got))
	}
}

// TestRequestsStartPolicy: without the flight recorder an unsampled
// request carries no trace; with it every request does, and a missing
// X-Trace-Id is minted.
func TestRequestsStartPolicy(t *testing.T) {
	clk := NewManualClock(time.Unix(1_700_000_000, 0))
	if id, tr := NewRequests(RequestsConfig{}, clk).Start(http.Header{}, clk.Now()); tr != nil || len(id) != 16 {
		t.Fatalf("recorder off: id %q trace %v, want a minted ID and no trace", id, tr)
	}
	if _, tr := NewRequests(RequestsConfig{FlightBuffer: 1}, clk).Start(http.Header{}, clk.Now()); tr == nil || tr.Sampled() {
		t.Fatalf("flight armed, sampling off: trace %v, want a live unsampled trace", tr)
	}
}

// TestRequestsConfigValidate covers the shared bounds.
func TestRequestsConfigValidate(t *testing.T) {
	if err := (RequestsConfig{}).Validate(); err != nil {
		t.Fatalf("zero config: %v", err)
	}
	if err := (RequestsConfig{TraceSample: 1, TraceBuffer: 1, FlightBuffer: 1, SlowThreshold: 1}).Validate(); err != nil {
		t.Fatalf("edge config: %v", err)
	}
	for _, c := range []RequestsConfig{
		{TraceSample: 1.5},
		{TraceSample: -1},
		{TraceSample: math.NaN()},
		{TraceBuffer: -5},
		{FlightBuffer: -3},
		{SlowThreshold: -1},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v validated", c)
		}
	}
}
