//pimcaps:bitexact

package slogate

import (
	"strings"
	"testing"

	"pimcapsnet/internal/loadgen"
)

// parentReport is the parent side of every pair below. Its p99 and
// p999 sit near the 0.25 s floor, so their 2× and 2.5× budgets (0.4 s,
// 0.75 s) lie above it and a quantile regression can fail the gate.
func parentReport() loadgen.Report {
	return loadgen.Report{
		Target: "serve", Shape: "constant", Seed: 42,
		DurationSeconds: 5, ReferenceRate: 100, Offered: 500,
		Availability: 0.999, P50: 0.01, P99: 0.2, P999: 0.3,
		KneeRate: 400,
	}
}

func TestCheckPassesUnchangedRun(t *testing.T) {
	parent, change := parentReport(), parentReport()
	rep := Check(&parent, &change)
	if !rep.OK() {
		t.Fatalf("identical run failed the gate: %v", rep.Failures)
	}
	if len(rep.Lines) == 0 {
		t.Fatal("no comparison lines emitted")
	}
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	parent, change := parentReport(), parentReport()
	change.Availability = 0.985 // −0.014, inside 0.02
	change.P99 = 0.36           // 1.8×, inside 2×
	change.P999 = 0.72          // 2.4×, inside 2.5×
	change.KneeRate = 120       // −70%, inside 75%
	if rep := Check(&parent, &change); !rep.OK() {
		t.Fatalf("in-tolerance run failed: %v", rep.Failures)
	}
}

func TestCheckFailsEachAxis(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(parent, change *loadgen.Report)
		want   string
	}{
		{"availability", func(_, c *loadgen.Report) { c.Availability = 0.9 }, "availability"},
		{"p99", func(_, c *loadgen.Report) { c.P99 = 0.5 }, "p99 regressed"},
		{"p999", func(_, c *loadgen.Report) { c.P999 = 1.0 }, "p999 regressed"},
		{"knee", func(_, c *loadgen.Report) { c.KneeRate = 80 }, "knee fell"},
		{"change lateness", func(_, c *loadgen.Report) { c.MaxLateness = 0.5 }, "change's generator fell"},
		{"parent lateness", func(p, _ *loadgen.Report) { p.MaxLateness = 0.5 }, "parent's generator fell"},
		{"shape mismatch", func(_, c *loadgen.Report) { c.Shape = "bursty" }, "one schedule"},
		{"seed mismatch", func(_, c *loadgen.Report) { c.Seed = 7 }, "one schedule"},
		{"rate mismatch", func(_, c *loadgen.Report) { c.ReferenceRate = 250 }, "same operating point"},
	}
	for _, c := range cases {
		parent, change := parentReport(), parentReport()
		c.mutate(&parent, &change)
		rep := Check(&parent, &change)
		if rep.OK() {
			t.Errorf("%s: regression passed the gate", c.name)
			continue
		}
		found := false
		for _, f := range rep.Failures {
			if strings.Contains(f, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: failures %v mention nothing like %q", c.name, rep.Failures, c.want)
		}
	}
}

// TestCheckLatencyFloor: a fast server may multiply its p99 and still
// pass while under the absolute floor — ratio noise on shared runners
// must not gate.
func TestCheckLatencyFloor(t *testing.T) {
	parent, change := parentReport(), parentReport()
	parent.P99 = 0.002
	parent.P999 = 0.004
	change.P99 = 0.2  // 100× but under the 250 ms floor
	change.P999 = 0.2 // 50× but under the floor
	if rep := Check(&parent, &change); !rep.OK() {
		t.Fatalf("sub-floor latency jitter failed the gate: %v", rep.Failures)
	}
}

// TestCheckNoKneeInBaseline: a parent run without a sweep gates only
// on the reference-rate SLOs.
func TestCheckNoKneeInBaseline(t *testing.T) {
	parent, change := parentReport(), parentReport()
	parent.KneeRate = 0
	change.KneeRate = 0
	if rep := Check(&parent, &change); !rep.OK() {
		t.Fatalf("kneeless parent failed: %v", rep.Failures)
	}
}
