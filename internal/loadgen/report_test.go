//pimcaps:bitexact

package loadgen

import (
	"math"
	"path/filepath"
	"testing"
)

func pt(rate, avail, p99 float64) SweepPoint {
	return SweepPoint{OfferedRate: rate, AchievedRate: rate * avail, Availability: avail, P99: p99}
}

// TestFindKnee walks the canonical shapes of a latency/throughput
// curve.
func TestFindKnee(t *testing.T) {
	healthyThenCollapse := []SweepPoint{
		pt(50, 1, 0.01), pt(100, 1, 0.012), pt(200, 1, 0.02),
		pt(400, 0.97, 0.8), pt(800, 0.5, 5),
	}
	rate, idx, unsat := FindKnee(healthyThenCollapse)
	if rate != 200 || idx != 2 || unsat {
		t.Errorf("collapse curve: knee (%g, %d, %v), want (200, 2, false)", rate, idx, unsat)
	}

	// Latency blows past 5×base (and the 50ms floor) while
	// availability holds: still a knee.
	latencyKnee := []SweepPoint{
		pt(50, 1, 0.02), pt(100, 1, 0.04), pt(200, 1, 0.3),
	}
	rate, idx, _ = FindKnee(latencyKnee)
	if rate != 100 || idx != 1 {
		t.Errorf("latency curve: knee (%g, %d), want (100, 1)", rate, idx)
	}

	// Sub-millisecond base p99: the floor keeps 5× from being
	// spuriously tight — 40ms at 100 req/s is still healthy.
	floored := []SweepPoint{pt(50, 1, 0.0005), pt(100, 1, 0.04)}
	rate, _, unsat = FindKnee(floored)
	if rate != 100 || !unsat {
		t.Errorf("floored curve: knee (%g, unsat=%v), want (100, true)", rate, unsat)
	}

	// Never saturates: knee is the top rate, flagged as a lower bound.
	rate, idx, unsat = FindKnee([]SweepPoint{pt(50, 1, 0.01), pt(100, 1, 0.011)})
	if rate != 100 || idx != 1 || !unsat {
		t.Errorf("unsaturated curve: (%g, %d, %v), want (100, 1, true)", rate, idx, unsat)
	}

	// A transient spike mid-sweep (healthy points above it) is a
	// measurement hiccup, not the knee: saturation is terminal, so the
	// sweep reads as unsaturated up to the top rate.
	spike := []SweepPoint{
		pt(50, 1, 0.01), pt(100, 1, 0.3), pt(200, 1, 0.02),
	}
	rate, idx, unsat = FindKnee(spike)
	if rate != 200 || idx != 2 || !unsat {
		t.Errorf("transient-spike curve: (%g, %d, %v), want (200, 2, true)", rate, idx, unsat)
	}

	// Saturated from the first point.
	rate, idx, _ = FindKnee([]SweepPoint{pt(50, 0.2, 3), pt(100, 0.1, 6)})
	if idx != -1 || rate != 0 {
		t.Errorf("dead curve: (%g, %d), want (0, -1)", rate, idx)
	}

	// Unordered input is sorted by rate before scanning.
	rate, _, _ = FindKnee([]SweepPoint{pt(200, 1, 0.02), pt(50, 1, 0.01), pt(400, 0.5, 2)})
	if rate != 200 {
		t.Errorf("unsorted input: knee %g, want 200", rate)
	}
}

// TestParseStageSums pulls the merged stage sums out of a Prometheus
// exposition and ignores per-replica re-exports and malformed lines.
func TestParseStageSums(t *testing.T) {
	metrics := `capsnet_stage_seconds_sum{stage="forward"} 1.5
capsnet_stage_seconds_sum{stage="queue_wait"} 0.25
capsnet_stage_seconds_sum{stage="forward",replica="r0"} 0.7
capsnet_stage_seconds_sum{replica="r1",stage="forward"} 0.8
capsnet_stage_seconds_count{stage="forward"} 10
capsnet_stage_seconds_sum{stage="bad"} not-a-number
other_metric 1
`
	got := ParseStageSums(metrics)
	if len(got) != 2 || got["forward"] != 1.5 || got["queue_wait"] != 0.25 {
		t.Fatalf("ParseStageSums = %v", got)
	}
}

// TestStageShares diffs two scrapes into a descending-share table.
func TestStageShares(t *testing.T) {
	before := map[string]float64{"forward": 1, "queue_wait": 0.5, "encode": 0.2, "gone_backwards": 9}
	after := map[string]float64{"forward": 4, "queue_wait": 1.5, "encode": 0.2, "gone_backwards": 1, "new_stage": 2}
	shares := StageShares(before, after)
	if len(shares) != 3 {
		t.Fatalf("got %d stages %v, want 3 (flat and backwards stages dropped)", len(shares), shares)
	}
	if shares[0].Stage != "forward" || shares[1].Stage != "new_stage" || shares[2].Stage != "queue_wait" {
		t.Fatalf("order %v", shares)
	}
	var total float64
	for _, s := range shares {
		total += s.Share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %g, want 1", total)
	}
	if math.Abs(shares[0].Seconds-3) > 1e-9 || math.Abs(shares[0].Share-0.5) > 1e-9 {
		t.Fatalf("forward share %+v, want 3s / 0.5", shares[0])
	}
}

// TestReportRoundTrip saves and reloads a report bit-for-bit.
func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slo.json")
	want := &Report{
		Target: "serve", Shape: "constant", Seed: 42,
		DurationSeconds: 5, ReferenceRate: 100, Offered: 500,
		Availability: 0.998, P50: 0.004, P99: 0.02, P999: 0.05,
		KneeRate: 220,
		Codes:    map[string]int{"200": 499, "429": 1},
		Sweep:    []SweepPoint{pt(100, 1, 0.02)},
		Stages:   []StageShare{{Stage: "forward", Seconds: 2, Share: 0.8}},
	}
	if err := SaveReport(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReferenceRate != want.ReferenceRate || got.Availability != want.Availability ||
		got.KneeRate != want.KneeRate || got.Codes["200"] != 499 ||
		len(got.Sweep) != 1 || len(got.Stages) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := LoadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("LoadReport accepted a missing file")
	}
}
