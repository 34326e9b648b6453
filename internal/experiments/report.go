package experiments

import (
	"fmt"
	"io"
	"time"
)

// reportPreamble opens EXPERIMENTS.md: the headline paper-vs-measured
// comparison ahead of the per-experiment tables.
const reportPreamble = `# EXPERIMENTS — paper vs. measured

Generated by ` + "`go run ./cmd/pimcaps-report`" + ` from the models and
simulators in this repository (see DESIGN.md for the per-experiment
index and the substitution notes). Absolute numbers come from a
calibrated first-order model — the comparison targets are the *shapes*:
who wins, by roughly what factor, where crossovers fall.

## Headline comparison

| Quantity | Paper | This reproduction |
|---|---|---|
| RP share of inference time (avg, Fig. 4) | 74.62% | ≈ 78% |
| RP stalls: memory / sync (avg, Fig. 5) | 44.64% / 34.45% | ≈ 50% / 35% |
| Intermediate-to-on-chip ratio (Fig. 6a) | 41×–305× | ≈ 2×–253× (smallest nets fall below the paper's range) |
| On-chip scaling benefit at 16 MB (Fig. 6b) | ≈ 1.114× | ≈ 1.08× |
| Bandwidth scaling GDDR5→HBM2 (Fig. 7) | 1.14 / 1.19 / 1.26× | 1.13 / 1.20 / 1.30× |
| GPU-ICP RP speedup (Fig. 15a) | 1.0114× | ≈ 1.014× |
| PIM-CapsNet RP speedup (Fig. 15a) | 2.17× (≤ 2.27×) | ≈ 2.6× (≤ 2.9×) |
| RP energy saving (Fig. 15b) | 92.18% | ≈ 94% |
| PIM-Intra speedup / crossbar share (Fig. 16a) | 1.22× / 45.24% | ≈ 1.4× / ≈ 53% |
| PIM-Inter speedup / VRS share (Fig. 16a) | 0.95× / 57.91% | ≈ 1.04× / ≈ 58% |
| Overall speedup (Fig. 17a) | 2.44× (≤ 2.76×) | ≈ 3.2× (≤ 3.8×) |
| Overall energy saving (Fig. 17b) | 64.91% (≤ 85.16%) | ≈ 65% (≤ 80%) |
| All-in-PIM (Fig. 17) | 0.52× perf, 71.09% energy saving | ≈ 0.3–1.1× perf, ≈ 39–86% saving |
| Accuracy delta w/o–w/ recovery (Table 5) | −0.35% / −0.04% | within ±2% per benchmark, ≈ −0.2% average (see Table5 below) |
| Dimension choice shifts with frequency (Fig. 18) | observed (e.g. Caps-SV3) | observed (see Fig18 markers) |

Known deviations and why:

* **Speedups run ~20–30% optimistic.** Our GPU baseline folds the
  framework's capacity pressure into the routing procedure (needed to
  reproduce Fig. 4's batch-size growth), which PIM sidesteps entirely;
  the paper's measured baseline was somewhat faster in relative terms.
* **Fig. 6a's smallest ratios fall below the paper's 41× floor** for
  the SVHN benchmarks on large-cache GPUs: the paper appears to count
  framework temporaries in the intermediate footprint; we count the
  algorithmic variables only.
* **Table 5 accuracies** are measured on trained synthetic proxies
  (DESIGN.md §2): the deltas between exact and PE-approximated routing
  are the paper's point and land within ±1%; the recovery multiply's
  classification effect is below the measurement resolution because a
  uniform rescaling of capsule lengths cannot move an argmax.

---

`

// reportStubs are experiments the report names with a fixed line
// instead of running: table5quick is a subset of table5.
var reportStubs = map[string]string{
	"table5quick": "the 2-benchmark CI subset of Table5 (run by `BenchmarkTable5Accuracy`); omitted here since Table5 above covers all 12",
}

// WriteReport writes EXPERIMENTS.md to w: the preamble, then every
// registered experiment's table in id order. An id in skip gets a
// one-line placeholder instead of a run. progress, when non-nil,
// receives one timing line per experiment run.
func WriteReport(w io.Writer, skip map[string]bool, progress io.Writer) error {
	fmt.Fprint(w, reportPreamble)
	for _, id := range IDs() {
		if stub, ok := reportStubs[id]; ok {
			fmt.Fprintf(w, "### %s — %s\n\n", id, stub)
			continue
		}
		if skip[id] {
			fmt.Fprintf(w, "### %s — skipped in this generation\n\n", id)
			continue
		}
		start := time.Now()
		t, err := Run(id)
		if err != nil {
			return err
		}
		t.Markdown(w)
		if progress != nil {
			fmt.Fprintf(progress, "[%s in %v]\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
