package obs

import (
	"bytes"
	"testing"
	"time"

	"pimcapsnet/internal/trace"
)

// TestBuildChromeLog checks the span → trace-event mapping: complete
// events in µs since epoch, per-request tracks, instant + counter at
// completion, nil entries skipped.
func TestBuildChromeLog(t *testing.T) {
	epoch := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	a := &Trace{ID: "aaaa", Start: epoch}
	a.Add("conv", -1, epoch.Add(1*time.Millisecond), epoch.Add(3*time.Millisecond))
	a.Add("routing_iteration", 1, epoch.Add(3*time.Millisecond), epoch.Add(4*time.Millisecond))
	a.setEnd(epoch.Add(5 * time.Millisecond))
	b := &Trace{ID: "bbbb", Start: epoch} // unfinished: no instant/counter

	log := BuildChromeLog([]*Trace{a, nil, b}, epoch)
	// a: 2 complete + instant + counter; b: nothing (no spans, no end).
	if len(log.Events()) != 4 {
		t.Fatalf("got %d events: %+v", len(log.Events()), log.Events())
	}
	e0 := log.Events()[0]
	if e0.Ph != "X" || e0.Name != "conv" || e0.TS != 1000 || e0.Dur != 2000 || e0.TID != 1 {
		t.Fatalf("conv event = %+v", e0)
	}
	if e0.Args["trace_id"] != "aaaa" {
		t.Fatalf("conv args = %v", e0.Args)
	}
	if log.Events()[1].Args["iteration"] != "1" {
		t.Fatalf("iteration arg = %v", log.Events()[1].Args)
	}
	if ph := log.Events()[2].Ph; ph != "i" {
		t.Fatalf("event 2 phase %q, want instant", ph)
	}
	e3 := log.Events()[3]
	if e3.Ph != "C" || e3.Args["requests"] != 1.0 {
		t.Fatalf("counter event = %+v", e3)
	}
}

// TestChromeTraceRoundTrips writes a ring's trace JSON and reads it
// back through internal/trace.ReadJSON — the same check the e2e smoke
// test performs over HTTP.
func TestChromeTraceRoundTrips(t *testing.T) {
	epoch := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tc := &Trace{ID: "cafe", Start: epoch}
	tc.Add("forward", -1, epoch, epoch.Add(2*time.Millisecond))
	tc.setEnd(epoch.Add(2 * time.Millisecond))

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Trace{tc}, epoch); err != nil {
		t.Fatal(err)
	}
	log, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if len(log.Events()) != 3 {
		t.Fatalf("round-tripped %d events, want 3", len(log.Events()))
	}
	if log.Events()[0].Name != "forward" || log.Events()[0].Dur != 2000 {
		t.Fatalf("round-tripped event = %+v", log.Events()[0])
	}
}

// TestChromeLogClampsNegativeDurations guards against clock skew
// producing events Perfetto refuses to load.
func TestChromeLogClampsNegativeDurations(t *testing.T) {
	epoch := time.Now()
	tc := &Trace{ID: "x", Start: epoch}
	tc.Add("weird", -1, epoch.Add(time.Millisecond), epoch) // end < start
	log := BuildChromeLog([]*Trace{tc}, epoch)
	if len(log.Events()) != 1 || log.Events()[0].Dur != 0 {
		t.Fatalf("negative duration not clamped: %+v", log.Events())
	}
}

func TestRuntimeStats(t *testing.T) {
	var e Emitter
	CollectRuntime(&e)
	stats := ParsePromText(e.Bytes())
	if len(stats) == 0 {
		t.Fatal("CollectRuntime emitted nothing; expected at least goroutines")
	}
	if g, ok := stats.Value("capsnet_go_goroutines"); !ok || g < 1 {
		t.Fatalf("goroutine gauge = %v (present %v)", g, ok)
	}
	if _, ok := stats.Value("capsnet_go_memory_total_bytes"); !ok {
		t.Fatal("memory gauge missing")
	}
}
