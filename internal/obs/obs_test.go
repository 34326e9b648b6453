package obs

import (
	"context"
	"fmt"
	"regexp"
	"testing"
	"time"
)

func newManualClock() *ManualClock {
	return NewManualClock(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
}

// seqIDs returns a deterministic IDSource: "t0001", "t0002", ...
func seqIDs() func() string {
	n := 0
	return func() string {
		n++
		return fmt.Sprintf("t%04d", n)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Add("x", -1, time.Time{}, time.Time{})
	tr.AddSpans([]Span{{Name: "y"}})
	if s := tr.Spans(); s != nil {
		t.Fatalf("nil trace Spans() = %v, want nil", s)
	}
	if !tr.EndTime().IsZero() {
		t.Fatal("nil trace EndTime() not zero")
	}
}

func TestNewIDFormat(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewID()
		if !hex16.MatchString(id) {
			t.Fatalf("NewID() = %q, want 16 lowercase hex chars", id)
		}
		if seen[id] {
			t.Fatalf("NewID() repeated %q within 100 draws", id)
		}
		seen[id] = true
	}
}

// TestTracerSamplingDeterministic pins the counter-based sampling:
// rate 0 never samples, rate 1 always, rate 0.5 exactly every 2nd.
func TestTracerSamplingDeterministic(t *testing.T) {
	clk := newManualClock()
	cases := []struct {
		sample float64
		want   []bool // sampled? for requests 1..6
	}{
		{0, []bool{false, false, false, false, false, false}},
		{1, []bool{true, true, true, true, true, true}},
		{0.5, []bool{false, true, false, true, false, true}},
		{0.25, []bool{false, false, false, true, false, false}},
	}
	for _, c := range cases {
		tr := NewTracer(TracerConfig{Sample: c.sample, Clock: clk, IDSource: seqIDs()})
		if got := tr.Enabled(); got != (c.sample > 0) {
			t.Errorf("sample %g: Enabled() = %v", c.sample, got)
		}
		for i, want := range c.want {
			got := tr.StartRequest(tr.NewID(), clk.Now()) != nil
			if got != want {
				t.Errorf("sample %g request %d: sampled = %v, want %v", c.sample, i+1, got, want)
			}
		}
	}
}

// TestTracerRingEviction fills a 2-slot ring with 3 traces and checks
// the oldest is evicted and ordering is oldest-first.
func TestTracerRingEviction(t *testing.T) {
	clk := newManualClock()
	tr := NewTracer(TracerConfig{Sample: 1, BufferSize: 2, Clock: clk, IDSource: seqIDs()})
	for i := 0; i < 3; i++ {
		tc := tr.StartRequest(tr.NewID(), clk.Now())
		if tc == nil {
			t.Fatal("sample 1 returned nil trace")
		}
		clk.Advance(time.Millisecond)
		tr.Finish(tc, clk.Now())
	}
	if tr.Completed() != 3 {
		t.Fatalf("Completed() = %d, want 3", tr.Completed())
	}
	last := tr.Last(10)
	if len(last) != 2 || last[0].ID != "t0002" || last[1].ID != "t0003" {
		ids := make([]string, len(last))
		for i, x := range last {
			ids[i] = x.ID
		}
		t.Fatalf("Last(10) IDs = %v, want [t0002 t0003]", ids)
	}
	if one := tr.Last(1); len(one) != 1 || one[0].ID != "t0003" {
		t.Fatalf("Last(1) = %v, want just the newest", one)
	}
	if tr.Last(0) != nil {
		t.Fatal("Last(0) should be nil")
	}
}

func TestFinishNilTraceIsNoop(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 0})
	tr.Finish(nil, time.Now())
	if tr.Completed() != 0 {
		t.Fatal("nil Finish counted")
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if TraceIDFrom(ctx) != "" || TraceFrom(ctx) != nil {
		t.Fatal("empty context should carry no trace")
	}
	tc := &Trace{ID: "abc"}
	ctx = WithTrace(ctx, "abc", tc)
	if TraceIDFrom(ctx) != "abc" {
		t.Fatalf("TraceIDFrom = %q", TraceIDFrom(ctx))
	}
	if TraceFrom(ctx) != tc {
		t.Fatal("TraceFrom did not round-trip")
	}
	// Unsampled: ID travels, trace stays nil.
	ctx = WithTrace(context.Background(), "def", nil)
	if TraceIDFrom(ctx) != "def" || TraceFrom(ctx) != nil {
		t.Fatal("unsampled context should carry ID but nil trace")
	}
}

// TestStageRecorder drives BeginStage with a fake clock and checks
// both the histogram callback and the span landing on the attached
// trace.
func TestStageRecorder(t *testing.T) {
	clk := newManualClock()
	type obsCall struct {
		stage   string
		iter    int
		seconds float64
	}
	var calls []obsCall
	rec := NewStageRecorder(clk, func(stage string, iter int, seconds float64) {
		calls = append(calls, obsCall{stage, iter, seconds})
	})
	tc := &Trace{ID: "x"}
	rec.SetCurrent(tc)

	end := rec.BeginStage("conv", -1)
	clk.Advance(3 * time.Millisecond)
	end()
	end = rec.BeginStage("routing_iteration", 2)
	clk.Advance(5 * time.Millisecond)
	end()

	want := []obsCall{{"conv", -1, 0.003}, {"routing_iteration", 2, 0.005}}
	if len(calls) != len(want) {
		t.Fatalf("got %d onStage calls, want %d", len(calls), len(want))
	}
	for i, c := range calls {
		if c != want[i] {
			t.Errorf("call %d = %+v, want %+v", i, c, want[i])
		}
	}
	spans := tc.Spans()
	if len(spans) != 2 || spans[0].Name != "conv" || spans[1].Iter != 2 {
		t.Fatalf("trace spans = %+v", spans)
	}
	if got := spans[1].End.Sub(spans[1].Start); got != 5*time.Millisecond {
		t.Fatalf("span duration %v, want 5ms", got)
	}
}

// TestStageRecorderCapturesTraceAtBegin pins the watchdog-abandonment
// contract: a stage begun against trace A keeps writing to A even if
// the runner re-attaches trace B before the stage ends.
func TestStageRecorderCapturesTraceAtBegin(t *testing.T) {
	clk := newManualClock()
	rec := NewStageRecorder(clk, nil)
	a, b := &Trace{ID: "a"}, &Trace{ID: "b"}
	rec.SetCurrent(a)
	end := rec.BeginStage("forward", -1)
	rec.SetCurrent(b) // next batch attaches before the stale stage ends
	clk.Advance(time.Millisecond)
	end()
	if len(a.Spans()) != 1 || len(b.Spans()) != 0 {
		t.Fatalf("span landed on wrong trace: a=%d b=%d", len(a.Spans()), len(b.Spans()))
	}
}

// TestStageRecorderDetached checks a detached (nil) recorder still
// feeds histograms and drops spans silently.
func TestStageRecorderDetached(t *testing.T) {
	clk := newManualClock()
	n := 0
	rec := NewStageRecorder(clk, func(string, int, float64) { n++ })
	end := rec.BeginStage("conv", -1)
	clk.Advance(time.Millisecond)
	end()
	if n != 1 {
		t.Fatalf("onStage calls = %d, want 1", n)
	}
}
