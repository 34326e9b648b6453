package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
	"time"

	"pimcapsnet/internal/trace"
)

// fleetFixture builds the canonical three-process fragment set: a
// router fragment whose attempt spans launched one replica fragment
// each (a retry: attempt 1 failed on replica-0, attempt 2 succeeded
// on replica-1).
func fleetFixture() []TraceFragment {
	base := int64(1_700_000_000_000_000) // wall-clock microseconds
	return []TraceFragment{
		{
			TraceID: "feedfacecafebeef", Process: "router",
			Spans: []WireSpan{
				{Name: "route", Iter: -1, StartUS: base, EndUS: base + 5000,
					SpanID: "root0000", Tags: map[string]string{"code": "200"}},
				{Name: "attempt", Iter: -1, StartUS: base + 100, EndUS: base + 2000,
					SpanID: "att10000", Parent: "root0000",
					Tags: map[string]string{"attempt": "1", "hedge": "false", "replica": "r0", "code": "500"}},
				{Name: "attempt", Iter: -1, StartUS: base + 2100, EndUS: base + 4900,
					SpanID: "att20000", Parent: "root0000",
					Tags: map[string]string{"attempt": "2", "hedge": "false", "replica": "r1", "code": "200"}},
			},
		},
		{
			TraceID: "feedfacecafebeef", Process: "replica-0", Parent: "att10000",
			Spans: []WireSpan{
				{Name: "forward", Iter: -1, StartUS: base + 300, EndUS: base + 1800},
			},
		},
		{
			TraceID: "feedfacecafebeef", Process: "replica-1", Parent: "att20000",
			Spans: []WireSpan{
				{Name: "queue_wait", Iter: -1, StartUS: base + 2300, EndUS: base + 2500},
				{Name: "routing_iteration", Iter: 1, StartUS: base + 2600, EndUS: base + 4000},
			},
		},
	}
}

// TestMergeFragmentsChromeValid is the fleet-trace golden check: the
// merged document must survive the trace.ReadJSON validator, rebase
// every timestamp onto a non-negative epoch, give each process its own
// pid with a process_name track, and stamp attempt attribution onto
// replica spans.
func TestMergeFragmentsChromeValid(t *testing.T) {
	frags := fleetFixture()
	SortFragmentSpans(frags)
	var buf bytes.Buffer
	if err := MergeFragments(frags).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	// The golden property: the bytes are a loadable Chrome trace.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("fleet trace is not JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatalf("fleet trace missing traceEvents key")
	}
	log, err := trace.ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("fleet trace failed Chrome-trace validation: %v", err)
	}

	pidsByProcess := map[string]int{}
	pidSeen := map[int]string{}
	var lastTS float64
	byName := map[string]trace.Event{}
	for _, e := range log.Events() {
		if e.Ph == "M" && e.Name == "process_name" {
			name := e.Args["name"].(string)
			if prior, dup := pidSeen[e.PID]; dup && prior != name {
				t.Fatalf("pid %d claimed by %q and %q", e.PID, prior, name)
			}
			pidSeen[e.PID] = name
			pidsByProcess[name] = e.PID
			continue
		}
		if e.TS < 0 {
			t.Fatalf("event %q has negative ts %v", e.Name, e.TS)
		}
		if e.TS < lastTS {
			t.Fatalf("Events() not monotone: %q at %v after %v", e.Name, e.TS, lastTS)
		}
		lastTS = e.TS
		byName[e.Name] = e
	}
	for _, proc := range []string{"router", "replica-0", "replica-1"} {
		if _, ok := pidsByProcess[proc]; !ok {
			t.Fatalf("missing process track %q (have %v)", proc, pidsByProcess)
		}
	}
	if len(pidsByProcess) != 3 {
		t.Fatalf("want 3 distinct process tracks, got %v", pidsByProcess)
	}

	// The epoch is the earliest span start: the route span rebases to 0.
	if route := byName["route"]; route.TS != 0 {
		t.Fatalf("route span ts = %v, want 0 (epoch rebase)", route.TS)
	}
	// Wall-clock containment: replica-0's forward span lies inside
	// attempt 1's extent on the shared timeline.
	fwd := byName["forward"]
	if fwd.TS != 300 || fwd.TS+fwd.Dur > 2000 {
		t.Fatalf("forward span [%v, %v] not inside attempt 1 [100, 2000]", fwd.TS, fwd.TS+fwd.Dur)
	}
	if fwd.PID != pidsByProcess["replica-0"] {
		t.Fatalf("forward span on pid %d, want replica-0's %d", fwd.PID, pidsByProcess["replica-0"])
	}
	// Attribution inheritance from the launching attempt span.
	if fwd.Args["attempt"] != "1" || fwd.Args["replica"] != "r0" || fwd.Args["hedge"] != "false" {
		t.Fatalf("forward span missing inherited attempt tags: %v", fwd.Args)
	}
	// Own identity survives alongside.
	if fwd.Args["trace_id"] != "feedfacecafebeef" || fwd.Args["parent_span"] != "att10000" {
		t.Fatalf("forward span lost identity args: %v", fwd.Args)
	}
	// Per-iteration spans keep their iteration index.
	if ri := byName["routing_iteration"]; ri.Args["iteration"] != "1" || ri.Args["attempt"] != "2" {
		t.Fatalf("routing_iteration args wrong: %v", ri.Args)
	}
}

// TestFragmentWireRoundTrip pushes a trace through WriteFragments and
// back through json decoding, checking span identity and tags survive.
func TestFragmentWireRoundTrip(t *testing.T) {
	start := time.Unix(1_700_000_000, 0)
	tr := &Trace{ID: "0123456789abcdef", Start: start}
	tr.SetParent("att10000")
	tr.Add("forward", -1, start, start.Add(2*time.Millisecond))
	tr.AddSpan(Span{
		Name: "attempt", Iter: -1, Start: start, End: start.Add(time.Millisecond),
		ID: "aaaa0000", Parent: "root0000", Tags: map[string]string{"attempt": "1"},
	})

	var buf bytes.Buffer
	if err := WriteFragments(&buf, []*Trace{tr, nil}); err != nil {
		t.Fatalf("WriteFragments: %v", err)
	}
	var doc FragmentDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decoding fragments: %v", err)
	}
	if len(doc.Fragments) != 1 {
		t.Fatalf("got %d fragments, want 1 (nil traces skipped)", len(doc.Fragments))
	}
	f := doc.Fragments[0]
	if f.TraceID != "0123456789abcdef" || f.Parent != "att10000" {
		t.Fatalf("fragment identity mangled: %+v", f)
	}
	if f.Process != "" {
		t.Fatalf("replica-side fragment must leave Process empty, got %q", f.Process)
	}
	if len(f.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(f.Spans))
	}
	att := f.Spans[1]
	if att.SpanID != "aaaa0000" || att.Parent != "root0000" || att.Tags["attempt"] != "1" {
		t.Fatalf("span identity lost over the wire: %+v", att)
	}
	if att.EndUS-att.StartUS != 1000 {
		t.Fatalf("span duration %dus, want 1000", att.EndUS-att.StartUS)
	}
}

// TestFlightRecorderRetention checks the tail-sampling policy: pin
// 5xx, slow, brownout, and caller-flagged requests; drop fast 200s;
// evict oldest-first at capacity.
func TestFlightRecorderRetention(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Capacity: 3, SlowThreshold: 100 * time.Millisecond})
	mk := func(id string) *Trace { return &Trace{ID: id, Start: time.Now()} }

	if f.Note(nil, 500, time.Second, 0) {
		t.Fatalf("nil trace must never pin")
	}
	if f.Note(mk("ok1"), 200, time.Millisecond, 0) {
		t.Fatalf("fast 200 pinned")
	}
	if !f.Note(mk("err1"), 503, time.Millisecond, 0) {
		t.Fatalf("5xx not pinned")
	}
	if !f.Note(mk("slow1"), 200, 150*time.Millisecond, 0) {
		t.Fatalf("slow 200 not pinned")
	}
	if !f.Note(mk("brown1"), 200, time.Millisecond, 2) {
		t.Fatalf("brownout request not pinned")
	}
	if !f.Note(mk("abort1"), 200, time.Millisecond, 0, FlightReasonBatchAborted) {
		t.Fatalf("caller-flagged request not pinned")
	}
	// A long stream of healthy traffic must not evict anything.
	for i := 0; i < 100; i++ {
		f.Note(mk("okN"), 200, time.Millisecond, 0)
	}

	entries := f.Entries()
	if len(entries) != 3 {
		t.Fatalf("retained %d, want capacity 3", len(entries))
	}
	// err1 (oldest pin) was evicted by the fourth pin; order is
	// oldest-first.
	wantIDs := []string{"slow1", "brown1", "abort1"}
	for i, want := range wantIDs {
		if entries[i].Trace.ID != want {
			t.Fatalf("entry %d = %s, want %s (entries %+v)", i, entries[i].Trace.ID, want, entries)
		}
	}
	if f.Pinned() != 4 {
		t.Fatalf("pinned total = %d, want 4", f.Pinned())
	}

	// Reason bookkeeping.
	wantReasons := map[string][]string{
		"slow1":  {FlightReasonSlow},
		"brown1": {FlightReasonBrownout},
		"abort1": {FlightReasonBatchAborted},
	}
	for _, e := range entries {
		want := wantReasons[e.Trace.ID]
		if len(e.Reasons) != len(want) || e.Reasons[0] != want[0] {
			t.Fatalf("%s reasons = %v, want %v", e.Trace.ID, e.Reasons, want)
		}
	}

	// Union semantics.
	union := f.Traces([]*Trace{entries[0].Trace})
	if len(union) != 2 {
		t.Fatalf("Traces dedup returned %d traces, want 2", len(union))
	}

	// WriteJSON shape.
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Pinned   uint64 `json:"pinned_total"`
		Retained int    `json:"retained"`
		Capacity int    `json:"capacity"`
		Entries  []struct {
			TraceID string   `json:"trace_id"`
			Status  int      `json:"status"`
			Reasons []string `json:"reasons"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decoding flight JSON: %v", err)
	}
	if doc.Pinned != 4 || doc.Retained != 3 || doc.Capacity != 3 || len(doc.Entries) != 3 {
		t.Fatalf("flight doc totals wrong: %+v", doc)
	}
	if doc.Entries[0].TraceID != "slow1" {
		t.Fatalf("flight doc order wrong: %+v", doc.Entries)
	}
}

// TestFlightRecorderMultiReason checks a request that trips several
// triggers records all of them, sorted.
func TestFlightRecorderMultiReason(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Capacity: 2, SlowThreshold: 10 * time.Millisecond})
	tr := &Trace{ID: "multi", Start: time.Now()}
	if !f.Note(tr, 504, time.Second, 1, FlightReasonDeadlineExhausted) {
		t.Fatalf("not pinned")
	}
	e := f.Entries()[0]
	want := []string{FlightReasonBrownout, FlightReasonDeadlineExhausted, FlightReasonSlow, FlightReasonStatus5xx}
	if len(e.Reasons) != len(want) {
		t.Fatalf("reasons = %v, want %v", e.Reasons, want)
	}
	for i := range want {
		if e.Reasons[i] != want[i] {
			t.Fatalf("reasons = %v, want %v (sorted)", e.Reasons, want)
		}
	}
	if e.BrownoutLevel != 1 {
		t.Fatalf("brownout level = %d, want 1", e.BrownoutLevel)
	}
}

// FuzzMergeFragments feeds raw bytes down the path the router takes
// with each replica's ?format=spans reply: FragmentDoc decode,
// SortFragmentSpans, MergeFragments, WriteJSON. Whatever decodes must
// merge without a panic into a document that is valid JSON and that
// trace.ReadJSON accepts back, and every span must land inside the
// set's rebased extent [0, latest − earliest], whatever int64
// timestamps the fragments claim.
func FuzzMergeFragments(f *testing.F) {
	fixture, err := json.Marshal(FragmentDoc{Fragments: fleetFixture()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture) // the edge cases live in testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		var doc FragmentDoc
		if json.Unmarshal(data, &doc) != nil {
			return
		}
		frags := doc.Fragments
		for i := range frags {
			if frags[i].Process == "" {
				frags[i].Process = "replica-" + strconv.Itoa(i%2)
			}
		}
		SortFragmentSpans(frags)
		var buf bytes.Buffer
		if err := MergeFragments(frags).WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("merged trace is not valid JSON:\n%s", buf.Bytes())
		}
		log, err := trace.ReadJSON(&buf)
		if err != nil {
			t.Fatalf("merged trace does not read back: %v", err)
		}
		var lo, hi float64
		first := true
		for _, f := range frags {
			for _, s := range f.Spans {
				start, end := float64(s.StartUS), float64(s.EndUS)
				if first || start < lo {
					lo = start
				}
				if first || max(start, end) > hi {
					hi = max(start, end)
				}
				first = false
			}
		}
		extent := (hi - lo) * (1 + 1e-12)
		for _, e := range log.Events() {
			if e.Ph == "X" && (e.TS < 0 || e.Dur < 0 || e.TS+e.Dur > extent) {
				t.Fatalf("span %q at ts %v dur %v lies outside the extent [0, %v]", e.Name, e.TS, e.Dur, hi-lo)
			}
		}
	})
}
