//pimcaps:bitexact

package benchgate

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: pimcapsnet
BenchmarkDynamicRoutingMNIST-4   	       5	  12000000 ns/op	     160 B/op	       4 allocs/op
BenchmarkDynamicRoutingMNIST-4   	       5	  14000000 ns/op	     160 B/op	       4 allocs/op
BenchmarkDynamicRoutingMNIST-4   	       5	  13000000 ns/op	     160 B/op	       4 allocs/op
BenchmarkForwardArenaSteady-4    	       5	   1500000 ns/op	       0 B/op	       0 allocs/op
BenchmarkForwardArenaSteady-4    	       5	   1600000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	pimcapsnet	1.234s
`

func TestParseStripsSuffixAndCollectsRuns(t *testing.T) {
	runs, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(runs["BenchmarkDynamicRoutingMNIST"]); got != 3 {
		t.Fatalf("routing runs = %d, want 3 (name suffix not stripped?)", got)
	}
	if got := len(runs["BenchmarkForwardArenaSteady"]); got != 2 {
		t.Fatalf("arena runs = %d, want 2", got)
	}
	if runs["BenchmarkForwardArenaSteady"][0].AllocsPerOp != 0 {
		t.Fatal("arena allocs/op should parse as 0")
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok\n")); err == nil {
		t.Fatal("want error for input with no benchmark lines")
	}
}

func TestMediansOddAndEven(t *testing.T) {
	runs, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	med := Medians(runs)
	if got := med["BenchmarkDynamicRoutingMNIST"].NsPerOp; got != 13000000 {
		t.Fatalf("odd-count median = %v, want 13000000", got)
	}
	if got := med["BenchmarkForwardArenaSteady"].NsPerOp; got != 1550000 {
		t.Fatalf("even-count median = %v, want 1550000", got)
	}
}

// parentForTest is a parent run with two hot rows, a ceiling row and
// a row the change deleted.
func parentForTest() map[string]Stat {
	return map[string]Stat{
		"BenchmarkHotA":                  {NsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkHotB/sub":              {NsPerOp: 2000, AllocsPerOp: 4},
		"BenchmarkPackedMulAddPeak/avx2": {NsPerOp: 500, AllocsPerOp: 0},
		"BenchmarkGone":                  {NsPerOp: 700, AllocsPerOp: 0},
	}
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	rep := Check(parentForTest(), map[string]Stat{
		"BenchmarkHotA":                  {NsPerOp: 1050, AllocsPerOp: 0},
		"BenchmarkHotB/sub":              {NsPerOp: 2100, AllocsPerOp: 4},
		"BenchmarkPackedMulAddPeak/avx2": {NsPerOp: 5000, AllocsPerOp: 9},
	})
	if !rep.OK() {
		t.Fatalf("want pass, got failures %v", rep.Failures)
	}
	if rep.Geomean < 1.04 || rep.Geomean > 1.06 {
		t.Fatalf("geomean = %v, want ~1.05", rep.Geomean)
	}
}

func TestCheckFailsOnGeomeanRegression(t *testing.T) {
	rep := Check(parentForTest(), map[string]Stat{
		"BenchmarkHotA":     {NsPerOp: 1120, AllocsPerOp: 0},
		"BenchmarkHotB/sub": {NsPerOp: 2240, AllocsPerOp: 4},
	})
	if rep.OK() {
		t.Fatal("want failure at +12% geomean")
	}
}

func TestCheckFailsOnAllocIncrease(t *testing.T) {
	rep := Check(parentForTest(), map[string]Stat{
		"BenchmarkHotA":     {NsPerOp: 1000, AllocsPerOp: 1}, // 0 -> 1 allocs
		"BenchmarkHotB/sub": {NsPerOp: 2000, AllocsPerOp: 4},
	})
	if rep.OK() {
		t.Fatal("want failure when a hot benchmark starts allocating")
	}
}

// TestCheckListsOneSidedRowsWithoutFailing: a row the change deleted or
// added is listed with its side and gates nothing, however it ran.
func TestCheckListsOneSidedRowsWithoutFailing(t *testing.T) {
	rep := Check(parentForTest(), map[string]Stat{
		"BenchmarkHotA":     {NsPerOp: 1000},
		"BenchmarkHotB/sub": {NsPerOp: 2000, AllocsPerOp: 4},
		"BenchmarkNew":      {NsPerOp: 1e9, AllocsPerOp: 100},
	})
	if !rep.OK() {
		t.Fatalf("one-sided rows must not gate, got %v", rep.Failures)
	}
	if rep.Geomean != 1 {
		t.Fatalf("geomean = %v, want 1 (one-sided rows excluded)", rep.Geomean)
	}
	for _, want := range []string{"BenchmarkGone", "only in parent", "BenchmarkNew", "only in change"} {
		if !strings.Contains(strings.Join(rep.Lines, "\n"), want) {
			t.Fatalf("report lines lack %q:\n%s", want, strings.Join(rep.Lines, "\n"))
		}
	}
}

// TestCeilingsNeverGate: the host-ceiling rows are informational
// whatever they do; every other row, sub-benchmarks included, is hot.
func TestCeilingsNeverGate(t *testing.T) {
	for name, want := range map[string]bool{
		"BenchmarkPackedMulAddPeak/avx2":   false,
		"BenchmarkPackedMulAddPeak/avx512": false,
		"BenchmarkStreamRead/plain":        false,
		"BenchmarkStreamRead/prefetch":     false,
		"BenchmarkConv2DInto/mn1_conv":     true,
		"BenchmarkForwardBatch/mn1/nb8":    true,
		"BenchmarkStreamReadish":           true,
	} {
		if got := hot(name); got != want {
			t.Errorf("hot(%s) = %v, want %v", name, got, want)
		}
	}
	rep := Check(parentForTest(), map[string]Stat{
		"BenchmarkHotA":                  {NsPerOp: 1000},
		"BenchmarkHotB/sub":              {NsPerOp: 2000, AllocsPerOp: 4},
		"BenchmarkPackedMulAddPeak/avx2": {NsPerOp: 1e6, AllocsPerOp: 3},
	})
	if !rep.OK() || rep.Geomean != 1 {
		t.Fatalf("a ceiling row gated: geomean %v, failures %v", rep.Geomean, rep.Failures)
	}
}

func TestCheckImprovementPasses(t *testing.T) {
	rep := Check(parentForTest(), map[string]Stat{
		"BenchmarkHotA":     {NsPerOp: 800, AllocsPerOp: 0},
		"BenchmarkHotB/sub": {NsPerOp: 1500, AllocsPerOp: 2},
	})
	if !rep.OK() {
		t.Fatalf("improvements must pass, got %v", rep.Failures)
	}
	if rep.Geomean >= 1 {
		t.Fatalf("geomean = %v, want < 1", rep.Geomean)
	}
}
