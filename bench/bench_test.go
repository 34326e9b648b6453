//pimcaps:bitexact
//
// The percentile, median and self-time helpers select or subtract
// recorded values without rounding, so these tests compare exactly.

package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"pimcapsnet/internal/capsnet"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.90, true}, // 10 beyond rank 90
		{99, 0.90, false}, // rank 90 of 99 leaves 9
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.50, true},
		{19, 0.50, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 500)
	if got := supportedPercentile(xs, 0.99); got != 0 {
		t.Errorf("p99 of 500 samples reported as %g; it has only 5 samples beyond it", got)
	}
}

func TestSegmentedPercentileShrugsOffABurst(t *testing.T) {
	// 500 calls of 10 ms, with a burst that triples calls 200..299: 20%
	// of the pooled sample, so the pooled p90 is the burst; it fills one
	// segment of five, so the segmented p90 is not.
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 10
		if i >= 200 && i < 300 {
			xs[i] = 30
		}
	}
	if got := segmentedPercentile(xs, 0.90); got != 10 {
		t.Errorf("segmented p90 = %g, want 10", got)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if got := percentile(sorted, 0.90); got != 30 {
		t.Errorf("pooled p90 = %g, want 30", got)
	}
	// Fewer than 200 calls make one segment: the pooled percentile.
	if got := segmentedPercentile(xs[150:300], 0.90); got != 30 {
		t.Errorf("p90 of one 150-call segment = %g, want 30", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	const u = time.Millisecond
	spans := []span{
		{name: "forward", parent: -1, start: 0, end: 100 * u},
		{name: "conv", parent: 0, start: 5 * u, end: 15 * u},
		{name: "routing_iteration", parent: 0, start: 20 * u, end: 80 * u},
		{name: "routing_softmax", parent: 2, start: 20 * u, end: 40 * u},
		{name: "routing_agreement", parent: 2, start: 35 * u, end: 60 * u}, // overlaps softmax by 5
		{name: "late", parent: 0, start: 95 * u, end: 120 * u},             // clipped to its parent
	}
	want := []time.Duration{
		(100 - 10 - 60 - 5) * u, // forward minus conv, iteration, and the 5 of "late" inside it
		10 * u,
		(60 - 40) * u, // children cover 20..60 once
		20 * u,
		25 * u,
		25 * u,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// recordingTimer notes the stages it saw begin and end.
type recordingTimer struct{ begun, ended []string }

func (r *recordingTimer) BeginStage(stage string, _ int) func() {
	r.begun = append(r.begun, stage)
	return func() { r.ended = append(r.ended, stage) }
}

func TestStageTimerBuildsTheSpanTree(t *testing.T) {
	rec := newSpanRecorder()
	server := &recordingTimer{}
	timer := newStageTimer(rec, true)
	tee := teeTimer{outer: server, inner: timer}
	for pass := 0; pass < 2; pass++ {
		tee.BeginStage(capsnet.StageConv, -1)()
		if end := tee.BeginStage(capsnet.StageRoutingPartition, int(capsnet.PartitionB)); end != nil {
			end()
		}
		endIter := tee.BeginStage(capsnet.StageRoutingIteration, 0)
		tee.BeginStage(capsnet.StageRoutingSoftmax, 0)()
		endIter()
		tee.BeginStage(capsnet.StageLengths, -1)()
	}
	if len(server.begun) != 10 || len(server.ended) != 10 {
		t.Fatalf("the server's own recorder saw %d begins and %d ends, want 10 and 10", len(server.begun), len(server.ended))
	}
	spans := rec.snapshot()
	var names []string
	for _, s := range spans {
		names = append(names, s.name)
	}
	wantNames := []string{"forward", "conv", "routing_iteration", "routing_softmax", "lengths"}
	wantNames = append(wantNames, wantNames...)
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("spans %v, want %v", names, wantNames)
	}
	for i, s := range spans {
		base := i / 5 * 5
		wantParent := base // the pass's forward span
		switch s.name {
		case "forward":
			wantParent = -1
		case "routing_softmax":
			wantParent = base + 2
		}
		if s.parent != wantParent || s.op != i/5 || s.end < s.start {
			t.Errorf("span %d %s: parent %d op %d [%v, %v], want parent %d op %d", i, s.name, s.parent, s.op, s.start, s.end, wantParent, i/5)
		}
	}
	if timer.partB != 2 {
		t.Errorf("partB = %d, want 2", timer.partB)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := schedule(25, 20, 7), schedule(25, 20, 7), schedule(25, 20, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if len(a) != 500 || len(c) != 500 {
		t.Errorf("schedules hold %d and %d arrivals, want exactly 25·20 whatever the seed", len(a), len(c))
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if !sort.Float64sAreSorted(a) || a[len(a)-1] >= 20 {
		t.Error("schedule is not ascending within the window")
	}
	// Paced: arrival i falls in the first paceJitter of interval i, so no
	// two arrivals are closer than the rest of an interval.
	for i, at := range a {
		if lo := float64(i) / 25; at < lo || at >= lo+paceJitter/25 {
			t.Fatalf("arrival %d at %g s, want within [%g, %g)", i, at, lo, lo+paceJitter/25)
		}
	}
	p, q, r := newImagePool(7, 8, 784), newImagePool(7, 8, 784), newImagePool(8, 8, 784)
	if !reflect.DeepEqual(p, q) {
		t.Error("same seed gave different image pools")
	}
	if reflect.DeepEqual(p, r) {
		t.Error("different seeds gave the same image pool")
	}
	seen := map[uint64]bool{}
	for _, img := range p {
		seen[checksum(img)] = true
	}
	if len(seen) != len(p) {
		t.Errorf("pool of %d images has only %d distinct ones", len(p), len(seen))
	}
}

func TestChecksumIsBitEquality(t *testing.T) {
	if checksum([]float32{0}) == checksum([]float32{float32(math.Copysign(0, -1))}) {
		t.Error("checksum does not tell 0 from -0")
	}
	if checksum([]float32{1, 2}) != checksum([]float32{1, 2}) {
		t.Error("checksum is not a function of its input")
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	// A generator that stalls 40 ms sends a call due at 10 ms at 50 ms;
	// the 10 ms the system then takes must read as 50 ms.
	r := opRecord{due: 10 * time.Millisecond, sent: 50 * time.Millisecond, done: 60 * time.Millisecond}
	if r.latency() != 50*time.Millisecond || r.lateness() != 40*time.Millisecond {
		t.Errorf("latency %v lateness %v, want 50ms and 40ms", r.latency(), r.lateness())
	}

	// runOpen stamps each call with its scheduled offset, not with the
	// moment it happened to be sent, and sends without waiting for
	// earlier calls: four calls of 30 ms due 5 ms apart overlap.
	offsets := []float64{0, 0.005, 0.010, 0.015}
	tgt := &target{call: func(context.Context, int, int) int {
		time.Sleep(30 * time.Millisecond)
		return statusOK
	}}
	t0 := time.Now()
	records, _ := runOpen(context.Background(), tgt, offsets, nil)
	if elapsed := time.Since(t0); elapsed > 100*time.Millisecond {
		t.Errorf("four overlapping 30 ms calls took %v: the generator waited for replies", elapsed)
	}
	for i, r := range records {
		if want := time.Duration(offsets[i] * float64(time.Second)); r.due != want {
			t.Errorf("call %d due %v, want the scheduled %v", i, r.due, want)
		}
		if r.sent < r.due || r.latency() < 30*time.Millisecond || r.status != statusOK {
			t.Errorf("call %d: %+v", i, r)
		}
	}
}

func TestClosedLoopWaitsForReplies(t *testing.T) {
	tgt := &target{call: func(context.Context, int, int) int {
		time.Sleep(5 * time.Millisecond)
		return statusOK
	}}
	records, elapsed := runClosed(context.Background(), tgt, 2, 50*time.Millisecond, nil)
	if n := len(records); n < 4 || n > 22 {
		t.Errorf("2 callers of 5 ms calls made %d calls in %v", n, elapsed)
	}
	for _, r := range records {
		if r.due != r.sent && r.lateness() > time.Millisecond {
			t.Errorf("closed-loop call due %v but sent %v", r.due, r.sent)
		}
	}
}

// metricsBody is a /metrics scrape of capsnet-serve at the seed commit,
// cut down to a few families.
const metricsBody = `capsnet_build_info{version="devel",go_version="go1.24.0"} 1
capsnet_requests_total 1209
capsnet_responses_total{code="200"} 1200
capsnet_responses_total{code="429"} 9
capsnet_arena_bytes 23909824
capsnet_routing_partition_total{dim="batch"} 116
capsnet_routing_partition_total{dim="hcaps"} 114
# a comment
capsnet_request_latency_seconds{quantile="0.5"} 0.125
capsnet_request_latency_seconds_bucket{le="0.25"} 1200
capsnet_request_latency_seconds_sum 156.434
capsnet_request_latency_seconds_count 1200
capsnet_batch_size_sum 1200
capsnet_batch_size_count 230
capsnet_stage_seconds_bucket{stage="conv",le="0.001"} 230
capsnet_stage_seconds_sum{stage="conv"} 0.149532
capsnet_stage_seconds_count{stage="conv"} 230
capsnet_stage_seconds_sum{stage="forward"} 10.0897
capsnet_stage_seconds_count{stage="forward"} 230
garbage line without a number
`

func TestExpositionDeltaReader(t *testing.T) {
	after := parseExpo([]byte(metricsBody), false)
	if got := after[`capsnet_responses_total{code="429"}`]; got != 9 {
		t.Errorf("429 counter = %g, want 9", got)
	}
	if _, ok := after["garbage line without a"]; ok || len(after) != 18 {
		t.Errorf("parsed %d series, want 18 (comment and garbage skipped)", len(after))
	}
	before := expo{
		`capsnet_stage_seconds_sum{stage="conv"}`:   0.049532,
		`capsnet_stage_seconds_count{stage="conv"}`: 30,
		"capsnet_requests_total":                    9,
	}
	d := after.minus(before)
	if got := d["capsnet_requests_total"]; got != 1200 {
		t.Errorf("requests delta = %g, want 1200", got)
	}
	mean, count := d.mean("capsnet_stage_seconds", `{stage="conv"}`)
	if count != 200 || math.Abs(mean-0.0005) > 1e-12 {
		t.Errorf("conv mean %g over %g, want 0.0005 over 200", mean, count)
	}
	if mean, count := d.mean("capsnet_stage_seconds", `{stage="nope"}`); mean != 0 || count != 0 {
		t.Errorf("missing family gave mean %g count %g", mean, count)
	}
	st := stageTotalsFromScrape(d)
	if st.forwards != 230 || st.images != 1200 || st.seconds["forward"] != 10.0897 {
		t.Errorf("stage totals %+v", st)
	}
}

func TestFleetScrapeSumsReplicas(t *testing.T) {
	body := `router_fleet_replicas_scraped 2
capsnet_stage_seconds_sum{stage="conv"} 3
capsnet_requests_total{replica="r0"} 10
capsnet_requests_total{replica="r1"} 12
capsnet_stage_seconds_sum{replica="r0",stage="conv"} 1
capsnet_stage_seconds_sum{replica="r1",stage="conv"} 2
`
	got := parseExpo([]byte(body), true)
	want := expo{"capsnet_requests_total": 22, `capsnet_stage_seconds_sum{stage="conv"}`: 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fleet scrape = %v, want %v (merged lines dropped, replicas summed)", got, want)
	}
}

func TestParseStatCPU(t *testing.T) {
	stat := []byte("4242 (caps net) serve) S 1 4242 4242 0 -1 4194304 500 0 0 0 150 50 0 0 20 0 8 0 1000 100000 200 18446744073709551615\n")
	got, err := parseStatCPU(stat)
	if err != nil || got != 2*time.Second {
		t.Errorf("parseStatCPU = %v, %v; want 2s (150+50 ticks)", got, err)
	}
	if _, err := parseStatCPU([]byte("1 (x) S 1")); err == nil {
		t.Error("short stat line accepted")
	}
}

func TestComputedWorkMatchesTheModels(t *testing.T) {
	pred, primary, routing := computedWork(models["rp3872"])
	// L = 11·11·32 = 3872 capsules; û is L×10×16 floats = 2.478 MB.
	if pred != 3872*10*8*16 || routing != 5*3872*10*16*4 {
		t.Errorf("rp3872: %g pred MACs, %g routing bytes", pred, routing)
	}
	if primary != 11*11*256*8*3*3 {
		t.Errorf("rp3872: %g primary MACs", primary)
	}
	if pred, _, _ := computedWork(models["mn1"]); pred != 1152*10*8*16 {
		t.Errorf("mn1: %g pred MACs, want L=1152", pred)
	}
}

// TestNamesAgreeWithBenchmarkJSON holds the harness to its contract:
// the workloads and metrics it emits are exactly those BENCHMARK.json
// declares, and every name is one the driver accepts.
func TestNamesAgreeWithBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var declared, have []string
	for _, w := range c.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
	if !reflect.DeepEqual(declared, have) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", declared, have)
	}

	ops := []opRecord{{done: time.Millisecond, status: statusOK}}
	p := &pass{ops: ops, window: time.Second, serve: expo{}, router: expo{}, serveEnd: expo{}}
	network, err := capsnet.New(capsnet.TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	offline, _ := workloadByName("offline_mn1")
	check := func(kind string, decls []metricDecl, got metricSet) {
		seen := map[string]bool{}
		for _, d := range decls {
			m, ok := got[d.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is declared but not emitted", kind, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s metric %s has unit %q, declared %q", kind, d.Name, m.Unit, d.Unit)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s metric %q unit %q: bad or repeated name", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, d.Name, d.Better)
			}
			seen[d.Name] = true
		}
		if len(got) != len(decls) {
			t.Errorf("%d %s metrics emitted, %d declared", len(got), kind, len(decls))
		}
	}
	check("end-to-end", c.EndToEnd, endToEnd(offline, p, 1, 1))
	check("per-layer", c.PerLayer, perLayer(&target{spec: offline, network: network}, p, p, hostCalibration{}))
	for _, d := range c.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
