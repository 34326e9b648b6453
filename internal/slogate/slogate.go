// Package slogate implements the CI tail-latency gate, the sibling
// of internal/benchgate: where benchgate blocks ns/op regressions on
// the hot kernels, slogate blocks regressions in what users actually
// experience under sustained load — availability and p99/p999 at the
// reference offered rate, and the position of the latency/throughput
// knee. Like benchgate it compares a change with its parent measured
// side by side on one host: `make slo-gate` replays the same seeded
// schedule against both sides' capsnet-serve and hands the two
// capsnet-load reports to Check.
package slogate

import (
	"fmt"

	"pimcapsnet/internal/loadgen"
)

// The gate's tolerances. They are deliberately loose: open-loop
// measurement records every scheduler stall on a shared runner as
// user-visible latency, and the gate exists to catch the
// step-function regressions — a serialization point on the batch
// path, a lost shed response, a collapsed knee — not jitter.
const (
	// maxAvailabilityDrop is the absolute availability loss allowed at
	// the reference rate (parent 0.999 → floor 0.979).
	maxAvailabilityDrop = 0.02
	// maxP99Factor is the allowed multiplicative p99 growth.
	maxP99Factor = 2.0
	// maxP999Factor is the allowed multiplicative p999 growth.
	maxP999Factor = 2.5
	// latencyFloor is the absolute latency budget in seconds below
	// which quantile ratios are ignored. The demo net the gate serves
	// answers in single-digit milliseconds, so its whole honest tail
	// sits below scheduler-noise amplitude; the floor sits above it.
	latencyFloor = 0.25
	// maxKneeDrop is the allowed fractional knee-rate loss.
	maxKneeDrop = 0.75
	// maxLateness voids a run whose generator fell this many seconds
	// behind its own schedule.
	maxLateness = 0.1
)

// Report is the outcome of a gate check.
type Report struct {
	// Lines holds the human-readable comparison.
	Lines []string
	// Failures lists gate violations; empty means the gate passes.
	Failures []string
}

// OK reports whether the gate passed.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Check compares the change's run with the parent's. Both must have
// been measured at the same reference rate and shape — runs at
// different operating points are a config error, not a regression,
// and fail loudly — and both must have kept pace with their schedule.
func Check(parent, change *loadgen.Report) *Report {
	rep := &Report{}
	if change.Shape != parent.Shape || change.Seed != parent.Seed {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"change replayed shape %s/seed %d but the parent ran %s/%d — both sides must replay one schedule",
			change.Shape, change.Seed, parent.Shape, parent.Seed))
	}
	if ratio(change.ReferenceRate, parent.ReferenceRate) > 1.001 || ratio(parent.ReferenceRate, change.ReferenceRate) > 1.001 {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"change offered %.4g req/s but the parent was measured at %.4g — SLOs only compare at the same operating point",
			change.ReferenceRate, parent.ReferenceRate))
	}

	rep.Lines = append(rep.Lines, fmt.Sprintf("availability    %8.4f -> %8.4f  (floor %.4f)",
		parent.Availability, change.Availability, parent.Availability-maxAvailabilityDrop))
	if change.Availability < parent.Availability-maxAvailabilityDrop {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"availability at %.4g req/s dropped %.4f -> %.4f (allowed drop %.4f)",
			parent.ReferenceRate, parent.Availability, change.Availability, maxAvailabilityDrop))
	}

	checkQuantile(rep, "p99", parent.P99, change.P99, maxP99Factor)
	checkQuantile(rep, "p999", parent.P999, change.P999, maxP999Factor)

	if parent.KneeRate > 0 {
		floor := parent.KneeRate * (1 - maxKneeDrop)
		rep.Lines = append(rep.Lines, fmt.Sprintf("knee rate       %8.4g -> %8.4g  (floor %.4g)",
			parent.KneeRate, change.KneeRate, floor))
		if change.KneeRate < floor {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"latency/throughput knee fell %.4g -> %.4g req/s (allowed drop %.0f%%)",
				parent.KneeRate, change.KneeRate, 100*maxKneeDrop))
		}
	}
	for _, run := range []struct {
		side string
		r    *loadgen.Report
	}{{"parent", parent}, {"change", change}} {
		if run.r.MaxLateness > maxLateness {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"%s's generator fell %.3gs behind its own schedule — the run is not open-loop-faithful; rerun on a quieter machine",
				run.side, run.r.MaxLateness))
		}
	}
	return rep
}

// checkQuantile gates one latency quantile: regression beyond
// factor× the parent fails, unless the change's value is still under
// the absolute floor where ratios are all noise.
func checkQuantile(rep *Report, name string, parent, change, factor float64) {
	budget := max(parent*factor, latencyFloor)
	rep.Lines = append(rep.Lines, fmt.Sprintf("%-8s %12.4gs -> %8.4gs  (budget %.4gs)", name, parent, change, budget))
	if change > budget {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"%s regressed %.4gs -> %.4gs (budget %.4gs = max(%.3g× parent, %.3gs floor))",
			name, parent, change, budget, factor, latencyFloor))
	}
}

// ratio returns a/b guarding the zero denominator.
func ratio(a, b float64) float64 {
	if b <= 0 {
		if a <= 0 {
			return 1
		}
		return 2 // forces the mismatch failure
	}
	return a / b
}
