// Package benchgate implements the CI benchmark-regression gate: it
// parses `go test -bench` output, condenses repeated runs (-count=N)
// to per-benchmark medians, and compares a change's medians with its
// parent's, both measured in one run on the same host. The
// gate fails when the geometric-mean ns/op ratio over the hot
// benchmarks regresses by more than Tolerance, or when any hot
// benchmark's allocs/op rises (the scratch-arena steady state must
// stay allocation-free). A benchmark on one side only is listed but
// never gates: a rename or deletion shows in the change's own diff.
package benchgate

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Tolerance is the allowed geomean ns/op regression over the hot
// set before the gate fails: 10%, wide enough to absorb host noise in
// medians of six -benchtime=5x passes a side (A/A geomeans of
// 0.97–1.08 on a 2-vCPU VM) but narrow enough to catch a real
// hot-loop slip.
const Tolerance = 0.10

// ceilings are the benchmarks that measure the host rather than the
// code — the packed multiply-add and read-stream ceilings the kernel
// rows are a share of — so they never gate.
var ceilings = []string{"BenchmarkPackedMulAddPeak", "BenchmarkStreamRead"}

// hot reports whether a benchmark gates: every benchmark but the
// ceilings and their sub-benchmarks.
func hot(name string) bool {
	top, _, _ := strings.Cut(name, "/")
	for _, c := range ceilings {
		if top == c {
			return false
		}
	}
	return true
}

// Stat holds one benchmark's condensed metrics.
type Stat struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s`)

// Parse reads `go test -bench -benchmem` output and returns every
// run of every benchmark, keyed by name with any -N GOMAXPROCS
// suffix stripped so runs at different core counts compare. Lines that
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
	// Geomean is the geometric-mean ns/op ratio (change/parent) over
	// the hot benchmarks present on both sides.
	Geomean float64
}

// OK reports whether the gate passed.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// Check compares a change's medians with its parent's. Hot benchmarks
// on both sides gate on geomean ns/op (> Tolerance regression fails)
// and on any allocs/op increase; the ceilings are informational, and a
// benchmark on one side only is listed without gating.
func Check(parent, change map[string]Stat) *Report {
	rep := &Report{}
	names := make([]string, 0, len(parent)+len(change))
	for name := range parent {
		names = append(names, name)
	}
	for name := range change {
		if _, ok := parent[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var logSum float64
	var logN int
	for _, name := range names {
		p, inParent := parent[name]
		c, inChange := change[name]
		if !inParent || !inChange {
			side := "parent"
			if inChange {
				side = "change"
			}
			rep.Lines = append(rep.Lines, fmt.Sprintf("%-40s only in %s", name, side))
			continue
		}
		ratio := c.NsPerOp / p.NsPerOp
		tag := ""
		if hot(name) {
			tag = " [hot]"
			logSum += math.Log(ratio)
			logN++
			if c.AllocsPerOp > p.AllocsPerOp {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s allocs/op rose %.0f -> %.0f", name, p.AllocsPerOp, c.AllocsPerOp))
			}
		}
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"%-40s %12.0f -> %12.0f ns/op  (%+.1f%%)  allocs %.0f -> %.0f%s",
			name, p.NsPerOp, c.NsPerOp, 100*(ratio-1), p.AllocsPerOp, c.AllocsPerOp, tag))
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
