// Package benchgate implements the CI benchmark-regression gate: it
// parses `go test -bench` output, condenses repeated runs (-count=N)
// to per-benchmark medians, and compares them against a checked-in
// baseline. The gate fails when the geometric-mean ns/op ratio over
// the hot-path benchmarks regresses by more than Tolerance, when any
// hot benchmark's allocs/op rises (the scratch-arena steady state
// must stay allocation-free), or when a hot benchmark is missing
// from the new run. Non-hot benchmarks are reported but never gate.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Tolerance is the allowed geomean ns/op regression over the hot
// set before the gate fails: 10%, wide enough to absorb shared-CI
// noise at -benchtime=5x -count=6 medians but narrow enough to catch
// a real hot-loop slip.
const Tolerance = 0.10

// DefaultHot lists the hot-path benchmarks the gate enforces: the
// routing and forward kernels the scratch-arena work targets and the
// one-core kernel benchmarks of internal/tensor and internal/capsnet on the repository
// benchmark's shapes — long enough at -benchtime=5x for 10% to mean
// something, and failing on any allocation.
var DefaultHot = []string{
	"BenchmarkDynamicRoutingMNIST",
	"BenchmarkDynamicRoutingPEMath",
	"BenchmarkPredictionVectors",
	"BenchmarkNetworkForward",
	"BenchmarkForwardArenaSteady",
	"BenchmarkConv2DInto/mn1_conv",
	"BenchmarkConv2DInto/mn1_primary",
	"BenchmarkConv2DInto/cv288_primary",
	"BenchmarkConv2DInto/rp3872_primary",
	"BenchmarkConv2DInto/cv288_conv",
	"BenchmarkConv2DInto/rp3872_conv",
	"BenchmarkPredictionVectorsRange/rp3872/nb1",
	"BenchmarkPredictionVectorsRange/rp3872/nb8",
	"BenchmarkPredictionVectorsRange/mn1/nb1",
	"BenchmarkPredictionVectorsRange/mn1/nb8",
	"BenchmarkPredictionVectorsRange/cv288/nb1",
	"BenchmarkPredictionVectorsRange/cv288/nb8",
	"BenchmarkAggregateRange/rp3872",
	"BenchmarkAggregateRange/mn1",
	"BenchmarkAggregateRange/cv288",
	"BenchmarkAgreementRange/rp3872/nb1",
	"BenchmarkAgreementRange/rp3872/nb8",
	"BenchmarkSoftmaxRows/rp3872/nb1",
	"BenchmarkSoftmaxRows/rp3872/nb8",
}

// HotIn returns the DefaultHot benchmarks that run has results for, in
// DefaultHot's order: the hot list a baseline written from that run
// carries, so a benchmark that was renamed or deleted leaves the gate
// with the run that no longer has it instead of lingering in the file.
func HotIn(run map[string]Stat) []string {
	var hot []string
	for _, name := range DefaultHot {
		if _, ok := run[name]; ok {
			hot = append(hot, name)
		}
	}
	return hot
}

// Stat holds one benchmark's condensed metrics.
type Stat struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// Baseline is the checked-in gate reference (BENCH_BASELINE.json).
type Baseline struct {
	// Hot names the benchmarks whose regression fails the gate.
	Hot []string `json:"hot"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped)
	// to its median metrics at baseline time.
	Benchmarks map[string]Stat `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s`)

// Parse reads `go test -bench -benchmem` output and returns every
// run of every benchmark, keyed by name with any -N GOMAXPROCS
// suffix stripped so baselines transfer across machines. Lines that
// are not benchmark results are ignored.
func Parse(r io.Reader) (map[string][]Stat, error) {
	runs := make(map[string][]Stat)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := stripProcSuffix(m[1])
		fields := strings.Fields(line)
		var st Stat
		seen := false
		for i := 2; i < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			switch fields[i] {
			case "ns/op":
				st.NsPerOp = v
				seen = true
			case "B/op":
				st.BytesPerOp = v
			case "allocs/op":
				st.AllocsPerOp = v
			}
		}
		if !seen {
			return nil, fmt.Errorf("benchgate: no ns/op on benchmark line %q", line)
		}
		runs[name] = append(runs[name], st)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark results found in input")
	}
	return runs, nil
}

func stripProcSuffix(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// Medians condenses repeated runs to one Stat per benchmark,
// taking the per-metric median (the standard robust summary for
// noisy shared-runner timings).
func Medians(runs map[string][]Stat) map[string]Stat {
	out := make(map[string]Stat, len(runs))
	for name, rs := range runs {
		out[name] = Stat{
			NsPerOp:     median(rs, func(s Stat) float64 { return s.NsPerOp }),
			AllocsPerOp: median(rs, func(s Stat) float64 { return s.AllocsPerOp }),
			BytesPerOp:  median(rs, func(s Stat) float64 { return s.BytesPerOp }),
		}
	}
	return out
}

func median(rs []Stat, get func(Stat) float64) float64 {
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = get(r)
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// Report is the outcome of a gate check.
type Report struct {
	// Lines holds the human-readable per-benchmark comparison.
	Lines []string
	// Failures lists gate violations; empty means the gate passes.
	Failures []string
	// Geomean is the geometric-mean ns/op ratio (new/old) over the
	// hot benchmarks present in both sets.
	Geomean float64
}

// OK reports whether the gate passed.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Check compares current medians against the baseline. Hot
// benchmarks gate on geomean ns/op (> Tolerance regression fails),
// per-benchmark allocs/op increases, and presence; everything else
// is informational.
func Check(base *Baseline, cur map[string]Stat) *Report {
	rep := &Report{}
	hot := make(map[string]bool, len(base.Hot))
	for _, name := range base.Hot {
		hot[name] = true
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var logSum float64
	var logN int
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur[name]
		if !ok {
			if hot[name] {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("hot benchmark %s missing from current run", name))
			}
			rep.Lines = append(rep.Lines, fmt.Sprintf("%-40s missing", name))
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		tag := ""
		if hot[name] {
			tag = " [hot]"
			logSum += math.Log(ratio)
			logN++
			if c.AllocsPerOp > b.AllocsPerOp {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s allocs/op rose %.0f -> %.0f", name, b.AllocsPerOp, c.AllocsPerOp))
			}
		}
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"%-40s %12.0f -> %12.0f ns/op  (%+.1f%%)  allocs %.0f -> %.0f%s",
			name, b.NsPerOp, c.NsPerOp, 100*(ratio-1), b.AllocsPerOp, c.AllocsPerOp, tag))
	}
	rep.Geomean = 1
	if logN > 0 {
		rep.Geomean = math.Exp(logSum / float64(logN))
	}
	if rep.Geomean > 1+Tolerance {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"hot-path geomean ns/op regressed %.1f%% (limit %.0f%%)",
			100*(rep.Geomean-1), 100*Tolerance))
	}
	return rep
}

// Load reads a baseline JSON file.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchgate: parsing %s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchgate: baseline %s has no benchmarks", path)
	}
	return &b, nil
}

// Save writes a baseline (or a current-run summary, for the CI
// artifact) as deterministic, indented JSON.
func Save(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// EmitBenchFormat writes the baseline back out in `go test -bench`
// text format (one iteration per line) so benchstat can diff it
// against a fresh run for the informational CI comparison.
func EmitBenchFormat(w io.Writer, b *Baseline) {
	names := make([]string, 0, len(b.Benchmarks))
	for name := range b.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := b.Benchmarks[name]
		fmt.Fprintf(w, "%s 1 %.1f ns/op %.0f B/op %.0f allocs/op\n",
			name, s.NsPerOp, s.BytesPerOp, s.AllocsPerOp)
	}
}
