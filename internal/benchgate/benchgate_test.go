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

func baselineForTest() *Baseline {
	return &Baseline{
		Hot: []string{"BenchmarkHotA", "BenchmarkHotB"},
		Benchmarks: map[string]Stat{
			"BenchmarkHotA": {NsPerOp: 1000, AllocsPerOp: 0},
			"BenchmarkHotB": {NsPerOp: 2000, AllocsPerOp: 4},
			"BenchmarkCold": {NsPerOp: 500, AllocsPerOp: 100},
		},
	}
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	rep := Check(baselineForTest(), map[string]Stat{
		"BenchmarkHotA": {NsPerOp: 1050, AllocsPerOp: 0},
		"BenchmarkHotB": {NsPerOp: 2100, AllocsPerOp: 4},
		"BenchmarkCold": {NsPerOp: 5000, AllocsPerOp: 999}, // cold never gates
	})
	if !rep.OK() {
		t.Fatalf("want pass, got failures %v", rep.Failures)
	}
	if rep.Geomean < 1.04 || rep.Geomean > 1.06 {
		t.Fatalf("geomean = %v, want ~1.05", rep.Geomean)
	}
}

func TestCheckFailsOnGeomeanRegression(t *testing.T) {
	rep := Check(baselineForTest(), map[string]Stat{
		"BenchmarkHotA": {NsPerOp: 1200, AllocsPerOp: 0},
		"BenchmarkHotB": {NsPerOp: 2400, AllocsPerOp: 4},
	})
	if rep.OK() {
		t.Fatal("want failure at +20% geomean")
	}
}

func TestCheckFailsOnAllocIncrease(t *testing.T) {
	rep := Check(baselineForTest(), map[string]Stat{
		"BenchmarkHotA": {NsPerOp: 1000, AllocsPerOp: 1}, // 0 -> 1 allocs
		"BenchmarkHotB": {NsPerOp: 2000, AllocsPerOp: 4},
	})
	if rep.OK() {
		t.Fatal("want failure when a hot benchmark starts allocating")
	}
}

func TestCheckFailsOnMissingHot(t *testing.T) {
	rep := Check(baselineForTest(), map[string]Stat{
		"BenchmarkHotA": {NsPerOp: 1000},
	})
	if rep.OK() {
		t.Fatal("want failure when a hot benchmark disappears")
	}
}

func TestCheckImprovementPasses(t *testing.T) {
	rep := Check(baselineForTest(), map[string]Stat{
		"BenchmarkHotA": {NsPerOp: 800, AllocsPerOp: 0},
		"BenchmarkHotB": {NsPerOp: 1500, AllocsPerOp: 2},
	})
	if !rep.OK() {
		t.Fatalf("improvements must pass, got %v", rep.Failures)
	}
	if rep.Geomean >= 1 {
		t.Fatalf("geomean = %v, want < 1", rep.Geomean)
	}
}

func TestEmitBenchFormatRoundTrips(t *testing.T) {
	base := baselineForTest()
	var sb strings.Builder
	EmitBenchFormat(&sb, base)
	runs, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("emitted format did not re-parse: %v", err)
	}
	med := Medians(runs)
	for name, want := range base.Benchmarks {
		got := med[name]
		if got.NsPerOp != want.NsPerOp || got.AllocsPerOp != want.AllocsPerOp {
			t.Fatalf("%s round-trip = %+v, want %+v", name, got, want)
		}
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	path := t.TempDir() + "/baseline.json"
	base := baselineForTest()
	if err := Save(path, base); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Hot) != len(base.Hot) || len(got.Benchmarks) != len(base.Benchmarks) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if got.Benchmarks["BenchmarkHotB"].NsPerOp != 2000 {
		t.Fatal("benchmark stats lost in round-trip")
	}
}

// TestHotInKeepsOnlyWhatRan: a baseline's hot list is DefaultHot cut to
// the benchmarks the run has, in DefaultHot's order, whatever else ran.
func TestHotInKeepsOnlyWhatRan(t *testing.T) {
	run := map[string]Stat{
		DefaultHot[3]:          {NsPerOp: 1},
		DefaultHot[0]:          {NsPerOp: 1},
		"BenchmarkNotHotAtAll": {NsPerOp: 1},
	}
	got := HotIn(run)
	if len(got) != 2 || got[0] != DefaultHot[0] || got[1] != DefaultHot[3] {
		t.Fatalf("HotIn = %v, want [%s %s]", got, DefaultHot[0], DefaultHot[3])
	}
	if got := HotIn(map[string]Stat{"BenchmarkNotHotAtAll": {}}); len(got) != 0 {
		t.Fatalf("HotIn of a run with no hot benchmark = %v, want none", got)
	}
}
