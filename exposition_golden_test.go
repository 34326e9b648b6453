package pimcapsnet_bench

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pimcapsnet/internal/cluster"
	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/serve"
	"pimcapsnet/internal/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the live writers")

// The three goldens pin the wire format of /metrics (serve), /metrics
// (router, with the SLO families) and /metrics/fleet: every series
// with its label order and value text, driven by a fixed script under
// an injected clock. Line order is not part of the contract (no reader
// depends on it), so lines are compared sorted; the runtime gauges and
// the build-info series vary by host and are pinned by name only.

// goldenLines reduces an exposition to its sorted `series value`
// lines.
func goldenLines(text string) string {
	var lines []string
	for _, s := range obs.ParsePromText([]byte(text)) {
		line := s.String()
		if strings.HasPrefix(s.Name, "capsnet_go_") || strings.HasSuffix(s.Name, "_build_info") {
			line = s.Name
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func checkGolden(t *testing.T, name, text string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	got := goldenLines(text)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s (rerun with -update-golden only for an intended wire change)\ngot:\n%s", name, path, got)
	}
}

func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("GET %s: Content-Type %q", path, ct)
	}
	return w.Body.String()
}

func TestServeMetricsGolden(t *testing.T) {
	m := serve.NewMetrics()
	m.QueueDepth = func() int { return 5 }
	m.ArenaBytes = func() uint64 { return 23909824 }
	m.BrownoutLevel = func() int { return 2 }
	m.BrownoutRequests.With("1")

	m.Requests.Add(12)
	for _, code := range []int{200, 200, 200, 200, 200, 200, 200, 400, 429, 429, 504, 418} {
		m.IncResponse(code)
	}
	for _, batch := range [][2]uint64{{4, 3}, {8, 3}, {1, 2}} {
		m.Batches.Inc()
		m.BatchSize.Observe(float64(batch[0]))
		m.RoutingIterations.Add(batch[1])
	}
	for _, s := range []float64{0, 0.0004, 0.003, 0.003, 0.04, 0.7, 12} {
		m.Latency.Observe(s)
	}
	for _, s := range []float64{0.00001, 0.0002, 0.02} {
		m.Stages.With(serve.StageQueueWait).Observe(s)
	}
	for _, s := range []float64{0.0003, 0.0006, 3} {
		m.Stages.With("routing_iteration").Observe(s)
	}
	m.Stages.With(serve.StageAdmission).Observe(0.00005)
	m.Stages.With(serve.StageForward).Observe(0.0161)
	m.Stages.With(serve.StageForward).Observe(0.0174)
	m.Stages.With("conv").Observe(0.0012)
	m.Traces.Inc()
	m.PanicsRecovered.Add(2)
	m.WatchdogBatches.Inc()
	m.RoutingFallbacks.Add(3)
	m.CheckpointRejections.Inc()
	m.BatchesAborted.Inc()
	m.DeadlinesExpired.Inc()
	m.BrownoutRequests.With("0").Add(9)
	m.BrownoutRequests.With("2").Add(4)

	checkGolden(t, "serve_metrics", get(t, m.Handler(), "/metrics"))
}

type poolFunc func() []cluster.ReplicaInfo

func (f poolFunc) Snapshot() []cluster.ReplicaInfo { return f() }

// scriptedRouter builds a dispatcher over two stub replicas and runs
// the fixed script: routed requests whose replica "takes" a scripted
// time on the injected clock, one expired on arrival, a two-minute gap
// so the 1m and 10m SLO windows differ, then direct counter bumps for
// the families the script's happy paths do not reach.
func scriptedRouter(t *testing.T) *cluster.Dispatcher {
	t.Helper()
	// The injected clock moves only when the script, or a stub replica
	// "taking" time over a classify, advances it.
	var tookMs atomic.Int64
	clock := obs.NewManualClock(time.Unix(1_700_000_000, 0))
	stub := func(file string) *httptest.Server {
		metrics, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/classify", func(w http.ResponseWriter, r *http.Request) {
			clock.Advance(time.Duration(tookMs.Load()) * time.Millisecond)
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"class":1,"probs":[0.1,0.8,0.1],"poses":null,"batch":1}`)
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Write(metrics)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	r0, r1 := stub("stub_r0.metrics"), stub("stub_r1.metrics")
	pool := poolFunc(func() []cluster.ReplicaInfo {
		return []cluster.ReplicaInfo{
			{Name: "r0", URL: r0.URL, Ready: true, Restarts: 2, Load: wire.Load{QueueDepth: 3, Inflight: 1}},
			{Name: "r1", URL: r1.URL, Ready: true, Load: wire.Load{QueueDepth: 2, Inflight: 2}},
			{Name: "r2", Restarts: 7},
		}
	})
	d, err := cluster.NewDispatcher(cluster.DispatcherConfig{
		Pool: pool, Clock: clock, HedgeDelay: -1, SLOTarget: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	classify := func(body string, hdr http.Header, want int) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/classify", strings.NewReader(body))
		for k, v := range hdr {
			req.Header[k] = v
		}
		w := httptest.NewRecorder()
		d.Handler().ServeHTTP(w, req)
		if w.Code != want {
			t.Fatalf("classify %s: status %d, want %d", body, w.Code, want)
		}
	}
	for i, ms := range []int64{2, 7, 30, 400, 12000} {
		tookMs.Store(ms)
		classify(`{"image":[0.`+strings.Repeat("3", i+1)+`]}`, nil, http.StatusOK)
	}
	expired := http.Header{}
	wire.SetDeadline(expired, clock.Now().Add(-time.Second))
	classify(`{"image":[0.9]}`, expired, http.StatusGatewayTimeout)
	clock.Advance(2 * time.Minute)
	tookMs.Store(60)
	classify(`{"image":[0.5]}`, nil, http.StatusOK)

	m := d.Metrics()
	m.Retries.Add(2)
	m.Hedges.Inc()
	m.HedgesSkipped.Add(3)
	m.ReplicaRequests.With("r1", "error").Inc()
	m.ReplicaRequests.With("r0", "corrupt").Inc()
	return d
}

func TestRouterMetricsGolden(t *testing.T) {
	checkGolden(t, "router_metrics", get(t, scriptedRouter(t).Handler(), "/metrics"))
}

func TestFleetMetricsGolden(t *testing.T) {
	checkGolden(t, "fleet_metrics", get(t, scriptedRouter(t).Handler(), "/metrics/fleet"))
}
