//pimcaps:bitexact
package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/serve"
)

// scrapeOf renders one replica's live /metrics exposition and parses
// it back, the same round trip handleFleetMetrics performs.
func scrapeOf(name string, m *serve.Metrics) ReplicaMetrics {
	var buf bytes.Buffer
	m.WriteText(&buf)
	return ReplicaMetrics{Name: name, Samples: obs.ParsePromText(buf.Bytes())}
}

// sampleValue finds the merged (replica-label-free) sample with the
// given name and le label ("" = no le), parsed as float.
func findSample(t *testing.T, samples obs.PromSamples, name, le string) (obs.PromSample, float64) {
	t.Helper()
	for _, s := range samples {
		if s.Name != name || s.Label("replica") != "" || s.Label("le") != le {
			continue
		}
		v, err := strconv.ParseFloat(s.Value, 64)
		if err != nil {
			t.Fatalf("sample %s has unparseable value %q: %v", name, s.Value, err)
		}
		return s, v
	}
	t.Fatalf("no merged sample %s{le=%q} in fleet output", name, le)
	return obs.PromSample{}, 0
}

// TestFleetMetricsHistogramMergeExact merges two real replica
// expositions and checks the fleet histogram components — _sum,
// _count, every _bucket, _overflow_total — equal the per-replica sums
// exactly, not approximately.
func TestFleetMetricsHistogramMergeExact(t *testing.T) {
	m0, m1 := serve.NewMetrics(), serve.NewMetrics()
	// Distinct shapes, including zero, bucket-boundary, and overflow
	// observations (latency bounds top out at 10s).
	for _, v := range []float64{0, 0.0013, 0.004, 0.004, 0.25, 11.5} {
		m0.Latency.Observe(v)
	}
	for _, v := range []float64{0.0009, 0.03, 0.03, 2.2, 40, 40, 40} {
		m1.Latency.Observe(v)
	}
	scrapes := []ReplicaMetrics{scrapeOf("r0", m0), scrapeOf("r1", m1)}

	var out bytes.Buffer
	WriteFleetMetrics(&out, scrapes, 0)
	merged := obs.ParsePromText(out.Bytes())

	const fam = "capsnet_request_latency_seconds"
	// _sum must equal the float sum of the replicas' _sum lines bit-for-bit.
	var wantSum float64
	var wantCount, wantOverflow uint64
	wantBuckets := map[string]uint64{}
	for _, sc := range scrapes {
		for _, s := range sc.Samples {
			switch s.Name {
			case fam + "_sum":
				v, err := strconv.ParseFloat(s.Value, 64)
				if err != nil {
					t.Fatalf("replica _sum %q: %v", s.Value, err)
				}
				wantSum += v
			case fam + "_count":
				n, err := strconv.ParseUint(s.Value, 10, 64)
				if err != nil {
					t.Fatalf("replica _count %q: %v", s.Value, err)
				}
				wantCount += n
			case fam + "_overflow_total":
				n, _ := strconv.ParseUint(s.Value, 10, 64)
				wantOverflow += n
			case fam + "_bucket":
				n, err := strconv.ParseUint(s.Value, 10, 64)
				if err != nil {
					t.Fatalf("replica _bucket %q: %v", s.Value, err)
				}
				wantBuckets[s.Label("le")] += n
			}
		}
	}
	if wantCount != 13 || wantOverflow != 4 {
		t.Fatalf("fixture drifted: count %d overflow %d, want 13 and 4", wantCount, wantOverflow)
	}

	if _, got := findSample(t, merged, fam+"_sum", ""); got != wantSum {
		t.Fatalf("merged _sum = %v, want exactly %v", got, wantSum)
	}
	cs, gotCount := findSample(t, merged, fam+"_count", "")
	if uint64(gotCount) != wantCount {
		t.Fatalf("merged _count = %v, want %d", gotCount, wantCount)
	}
	// Integer series must render as integers, not floats.
	if strings.ContainsAny(cs.Value, ".e") {
		t.Fatalf("merged _count rendered as %q, want integer form", cs.Value)
	}
	if _, got := findSample(t, merged, fam+"_overflow_total", ""); uint64(got) != wantOverflow {
		t.Fatalf("merged _overflow_total = %v, want %d", got, wantOverflow)
	}
	for le, want := range wantBuckets {
		if _, got := findSample(t, merged, fam+"_bucket", le); uint64(got) != want {
			t.Fatalf("merged bucket le=%q = %v, want %d", le, got, want)
		}
	}
	// Cumulative-consistency spot check: the +Inf bucket equals _count.
	if _, inf := findSample(t, merged, fam+"_bucket", "+Inf"); uint64(inf) != wantCount {
		t.Fatalf("merged +Inf bucket %v != count %d", inf, wantCount)
	}
}

// TestFleetMetricsReExportsPerReplica checks every replica sample
// reappears with a replica label and a byte-identical value, and that
// the scrape bookkeeping gauges are present.
func TestFleetMetricsReExportsPerReplica(t *testing.T) {
	m0, m1 := serve.NewMetrics(), serve.NewMetrics()
	m0.Latency.Observe(0.017)
	m1.Latency.Observe(0.2)
	m0.Requests.Inc()
	scrapes := []ReplicaMetrics{scrapeOf("r0", m0), scrapeOf("r1", m1)}

	var out bytes.Buffer
	WriteFleetMetrics(&out, scrapes, 1)
	text := out.String()
	merged := obs.ParsePromText(out.Bytes())

	byReplica := map[string]map[string]string{}
	for _, s := range merged {
		rep := s.Label("replica")
		if rep == "" {
			continue
		}
		if byReplica[rep] == nil {
			byReplica[rep] = map[string]string{}
		}
		byReplica[rep][s.Name+"{"+mergeKey(s.Labels)+"}"] = s.Value
	}
	for _, sc := range scrapes {
		for _, s := range sc.Samples {
			key := s.Name + "{" + mergeKey(s.Labels) + "}"
			got, ok := byReplica[sc.Name][key]
			if !ok {
				t.Fatalf("replica %s sample %s missing from fleet re-export", sc.Name, key)
			}
			if got != s.Value {
				t.Fatalf("replica %s sample %s value %q != original %q", sc.Name, key, got, s.Value)
			}
		}
	}
	if !strings.Contains(text, "router_fleet_replicas_scraped 2\n") {
		t.Fatalf("missing scraped gauge:\n%s", text)
	}
	if !strings.Contains(text, "router_fleet_scrape_failures 1\n") {
		t.Fatalf("missing failure gauge:\n%s", text)
	}
}

// TestFleetMetricsDisjointStageFamilies merges replicas exposing
// different stage label sets — a replica that has served traffic has
// stage histograms a fresh one lacks — and checks partial families
// still merge without inventing series.
func TestFleetMetricsDisjointStageFamilies(t *testing.T) {
	m0, m1 := serve.NewMetrics(), serve.NewMetrics()
	m0.Stages.With("conv").Observe(0.002)
	m0.Stages.With("conv").Observe(0.004)
	// m1 never saw a conv stage.
	scrapes := []ReplicaMetrics{scrapeOf("r0", m0), scrapeOf("r1", m1)}

	var out bytes.Buffer
	WriteFleetMetrics(&out, scrapes, 0)
	merged := obs.ParsePromText(out.Bytes())

	const want = "capsnet_stage_seconds_count"
	var got uint64
	for _, s := range merged {
		if s.Name == want && s.Label("replica") == "" && s.Label("stage") == "conv" {
			n, err := strconv.ParseUint(s.Value, 10, 64)
			if err != nil {
				t.Fatalf("merged stage count %q: %v", s.Value, err)
			}
			got = n
		}
	}
	if got != 2 {
		t.Fatalf("merged conv stage count = %d, want 2", got)
	}
}

// TestFleetMetricsOversizeBodyIsScrapeFailure: a replica whose /metrics
// body exceeds the cap is counted in router_fleet_scrape_failures and
// re-exported not at all, while its healthy neighbour still is.
func TestFleetMetricsOversizeBodyIsScrapeFailure(t *testing.T) {
	stub := func(name, body string) ReplicaInfo {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, body)
		}))
		t.Cleanup(srv.Close)
		return ReplicaInfo{Name: name, URL: srv.URL, Ready: true}
	}
	line := "capsnet_requests_total 7\n"
	pool := &staticPool{reps: []ReplicaInfo{
		stub("r0", line),
		stub("r1", strings.Repeat(line, maxReplicaMetricsBytes/len(line)+1)),
	}}
	d := newTestDispatcher(t, DispatcherConfig{Pool: pool})

	w := httptest.NewRecorder()
	d.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics/fleet", nil))
	samples := obs.ParsePromText(w.Body.Bytes())
	for series, want := range map[string]float64{
		"router_fleet_replicas_scraped": 1,
		"router_fleet_scrape_failures":  1,
	} {
		if got, ok := samples.Value(series); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if got, ok := samples.Value("capsnet_requests_total", "replica", "r0"); !ok || got != 7 {
		t.Errorf("healthy replica re-export = %v (present %v), want 7", got, ok)
	}
	if _, ok := samples.Value("capsnet_requests_total", "replica", "r1"); ok {
		t.Error("oversize replica body was re-exported")
	}
}
