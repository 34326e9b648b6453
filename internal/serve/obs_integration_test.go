package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/trace"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestObservabilityEndToEnd drives the fully wired server (sampling
// every request, JSON logging) and checks the whole observability
// surface in one pass: trace IDs on headers and log lines, per-stage
// histograms whose pipeline stages account for end-to-end latency, and
// a /debug/requests/trace export that round-trips through
// internal/trace with the right span set.
func TestObservabilityEndToEnd(t *testing.T) {
	network, images := testNetwork(t, 3)
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&syncWriter{w: &logBuf}, nil))
	srv, err := New(network, capsnet.ExactMath{}, Config{
		RequestsConfig: obs.RequestsConfig{TraceSample: 1, TraceBuffer: 32},
		Logger:         logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close(context.Background())

	const n = 6
	ids := make(map[string]bool)
	for i := 0; i < n; i++ {
		resp, _ := postClassify(t, ts.URL, images[i%len(images)])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		id := resp.Header.Get("X-Trace-Id")
		if !traceIDRe.MatchString(id) {
			t.Fatalf("X-Trace-Id %q not a 16-hex trace ID", id)
		}
		if ids[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		ids[id] = true
	}

	// A caller-supplied trace ID must be honored end to end.
	body, _ := json.Marshal(ClassifyRequest{Image: images[0]})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", bytes.NewReader(body))
	req.Header.Set("X-Trace-Id", "feedfacecafebeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "feedfacecafebeef" {
		t.Fatalf("caller trace ID not honored: %q", got)
	}

	// Metrics: every pipeline stage and the forward-pass stages must
	// have observations, and the pipeline stage sums must approximately
	// account for the end-to-end latency sum (they partition each
	// request's time inside the server; only handler-internal
	// bookkeeping between stamps is unaccounted).
	m := srv.Metrics()
	for _, stage := range []string{
		StageAdmission, StageQueueWait, StageBatchAssembly, StageForward, StageEncode,
		capsnet.StageConv, capsnet.StagePrimaryCaps, capsnet.StagePredictionVectors,
		capsnet.StageRoutingIteration, capsnet.StageRoutingSoftmax,
		capsnet.StageRoutingAggregate, capsnet.StageLengths,
	} {
		if got := m.Stages.With(stage).Count(); got == 0 {
			t.Errorf("stage %q has no observations", stage)
		}
	}
	var pipelineSum float64
	for _, stage := range []string{StageAdmission, StageQueueWait, StageBatchAssembly, StageForward, StageEncode} {
		pipelineSum += m.Stages.With(stage).Sum()
	}
	latencySum := m.Latency.Sum()
	if pipelineSum > latencySum*1.05+0.001 {
		t.Errorf("pipeline stage sum %.6fs exceeds latency sum %.6fs", pipelineSum, latencySum)
	}
	if pipelineSum < latencySum*0.5-0.001 {
		t.Errorf("pipeline stage sum %.6fs accounts for under half the latency sum %.6fs", pipelineSum, latencySum)
	}

	// Trace export: Perfetto-format JSON that internal/trace reads
	// back, containing forward-pass spans tagged with known IDs.
	traceResp, err := http.Get(ts.URL + "/debug/requests/trace?last=10")
	if err != nil {
		t.Fatal(err)
	}
	defer traceResp.Body.Close()
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status %d", traceResp.StatusCode)
	}
	log, err := trace.ReadJSON(traceResp.Body)
	if err != nil {
		t.Fatalf("trace export does not parse as Chrome trace JSON: %v", err)
	}
	seen := make(map[string]bool)
	tracedIDs := make(map[string]bool)
	for _, e := range log.Events() {
		seen[e.Name] = true
		if id, ok := e.Args["trace_id"].(string); ok {
			tracedIDs[id] = true
		}
	}
	for _, want := range []string{
		StageAdmission, StageQueueWait, StageBatchAssembly, StageForward, StageEncode,
		capsnet.StageConv, capsnet.StageRoutingIteration, "request_done",
	} {
		if !seen[want] {
			t.Errorf("trace export missing %q spans (saw %v)", want, seen)
		}
	}
	overlap := 0
	for id := range ids {
		if tracedIDs[id] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Errorf("no response trace ID appears in the export: headers %v, export %v", ids, tracedIDs)
	}

	// Invalid ?last= is rejected.
	badResp, err := http.Get(ts.URL + "/debug/requests/trace?last=zero")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, badResp.Body)
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad ?last= got status %d, want 400", badResp.StatusCode)
	}

	// pprof admin surface answers.
	pprofResp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, pprofResp.Body)
	pprofResp.Body.Close()
	if pprofResp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", pprofResp.StatusCode)
	}

	// Structured logs: one JSON record per request, trace IDs matching
	// the response headers.
	logged := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec struct {
			Msg     string  `json:"msg"`
			TraceID string  `json:"trace_id"`
			Status  int     `json:"status"`
			Latency float64 `json:"latency_seconds"`
			Batch   int     `json:"batch"`
			Sampled bool    `json:"sampled"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %q: %v", line, err)
		}
		if rec.Msg != "classify" || rec.Status != 200 || !rec.Sampled || rec.Latency <= 0 || rec.Batch < 1 {
			t.Errorf("unexpected log record: %q", line)
		}
		logged[rec.TraceID] = true
	}
	for id := range ids {
		if !logged[id] {
			t.Errorf("trace ID %s missing from logs (logged: %v)", id, logged)
		}
	}
}

// syncWriter serializes concurrent handler writes from per-connection
// goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestTracingDisabledByDefault checks the zero config issues trace IDs
// but records no spans and retains no traces.
func TestTracingDisabledByDefault(t *testing.T) {
	network, images := testNetwork(t, 3)
	srv, err := New(network, capsnet.ExactMath{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close(context.Background())

	resp, _ := postClassify(t, ts.URL, images[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Trace-Id"); !traceIDRe.MatchString(id) {
		t.Errorf("trace IDs should still be issued when sampling is off; got %q", id)
	}
	if srv.Requests().Tracer().Enabled() {
		t.Error("tracer enabled with TraceSample 0")
	}
	if got := srv.Requests().Tracer().Completed(); got != 0 {
		t.Errorf("retained %d traces with sampling off", got)
	}
	// Stage histograms stay on regardless (they are the cheap part).
	if srv.Metrics().Stages.With(StageForward).Count() == 0 {
		t.Error("stage histograms should observe even with sampling off")
	}
	// The export endpoint still answers, with an empty event list.
	traceResp, err := http.Get(ts.URL + "/debug/requests/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer traceResp.Body.Close()
	log, err := trace.ReadJSON(traceResp.Body)
	if err != nil {
		t.Fatalf("empty trace export must still parse: %v", err)
	}
	if len(log.Events()) != 0 {
		t.Errorf("expected empty export, got %d events", len(log.Events()))
	}
}
