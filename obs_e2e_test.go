package pimcapsnet_bench

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"testing"

	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/trace"
)

// parseExposition checks a live exposition is well formed — every
// non-comment line is a sample the one parser returns, with a numeric
// value, that re-renders to itself — and returns the samples.
func parseExposition(t *testing.T, endpoint, text string) obs.PromSamples {
	t.Helper()
	samples := obs.ParsePromText([]byte(text))
	n := 0
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if n >= len(samples) {
			t.Fatalf("%s: parser returned %d samples, fewer than the sample lines", endpoint, len(samples))
		}
		if _, err := samples[n].Float(); err != nil || samples[n].String() != line {
			t.Errorf("%s line %q is not a well-formed sample: parsed as %q (value error %v)", endpoint, line, samples[n], err)
		}
		n++
	}
	return samples
}

// seriesValue returns the value of one series of a parsed exposition.
func seriesValue(t *testing.T, samples obs.PromSamples, name string, labels ...string) float64 {
	t.Helper()
	v, ok := samples.Value(name, labels...)
	if !ok {
		t.Fatalf("series %s %v not found", name, labels)
	}
	return v
}

// TestObservabilitySmokeE2E is the out-of-process observability smoke
// test the CI obs-smoke job runs: it builds the real capsnet-serve
// binary, boots it with tracing on, fires load, and checks the three
// acceptance surfaces — /metrics parses as Prometheus text format,
// /debug/pprof/profile serves a CPU profile, and
// /debug/requests/trace round-trips through internal/trace — then
// shuts the server down gracefully.
func TestObservabilitySmokeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the server binary; skipped in -short")
	}

	// The startup log line carries the bound address (-addr :0 makes
	// the OS pick the port) and every later line must be valid JSON
	// with a trace ID on request records.
	bins := buildCmds(t, "capsnet-serve", "examples/serve")
	srv := startProc(t, bins[0], "serving",
		"-demo-classes", "3",
		"-addr", "127.0.0.1:0",
		"-log-format", "json",
		"-log-level", "info",
		"-trace-sample", "1",
	)
	base := srv.base

	// Size the image from the advertised model geometry and fire load.
	var info struct {
		Channels, Height, Width, Classes int
	}
	getJSON(t, base+"/v1/model", &info)
	img := make([]float32, info.Channels*info.Height*info.Width)
	for i := range img {
		img[i] = float32(i%7) / 7
	}
	body, _ := json.Marshal(map[string]any{"image": img})
	const n = 10
	for i := 0; i < n; i++ {
		resp, err := http.Post(base+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if id := resp.Header.Get("X-Trace-Id"); len(id) != 16 {
			t.Fatalf("request %d: X-Trace-Id %q", i, id)
		}
	}

	// 1. /metrics must be well-formed Prometheus text exposition with
	// the stage histograms populated.
	metricsText := getText(t, base+"/metrics")
	parseExposition(t, "/metrics", metricsText)
	for _, want := range []string{
		`capsnet_stage_seconds_count{stage="forward"}`,
		`capsnet_stage_seconds_count{stage="routing_iteration"}`,
		`capsnet_stage_seconds_count{stage="queue_wait"}`,
		"capsnet_go_goroutines",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// 2. pprof must serve a real CPU profile.
	profResp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := io.ReadAll(profResp.Body)
	profResp.Body.Close()
	if profResp.StatusCode != http.StatusOK || len(prof) == 0 {
		t.Errorf("pprof profile: status %d, %d bytes", profResp.StatusCode, len(prof))
	}

	// 3. The request-trace export must round-trip through
	// internal/trace and contain the serving pipeline's spans.
	traceResp, err := http.Get(base + "/debug/requests/trace?last=8")
	if err != nil {
		t.Fatal(err)
	}
	log, err := trace.ReadJSON(traceResp.Body)
	traceResp.Body.Close()
	if err != nil {
		t.Fatalf("trace export round-trip: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range log.Events() {
		seen[e.Name] = true
	}
	for _, want := range []string{"admission", "queue_wait", "forward", "routing_iteration", "encode"} {
		if !seen[want] {
			t.Errorf("trace export missing %q spans (saw %v)", want, seen)
		}
	}

	// 4. The one-shot example client classifies one image per class.
	out, err := exec.Command(bins[1], "-addr", base).CombinedOutput()
	if err != nil {
		t.Fatalf("examples/serve: %v\n%s", err, out)
	}
	if got := strings.Count(string(out), ": predicted "); got != info.Classes {
		t.Errorf("examples/serve printed %d prediction lines, want %d (one per class):\n%s", got, info.Classes, out)
	}

	// Graceful shutdown must exit 0, and every log line must have been
	// JSON.
	srv.interrupt()

	// Structured logs: every classify record carries a trace ID.
	count := 0
	for _, rec := range srv.records {
		if rec.Msg != "classify" {
			continue
		}
		count++
		if len(rec.TraceID) != 16 || rec.Status != 200 {
			t.Errorf("bad request log record: %+v", rec)
		}
	}
	if count != n+info.Classes {
		t.Errorf("logged %d classify records, want %d", count, n+info.Classes)
	}
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
