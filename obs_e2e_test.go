package pimcapsnet_bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

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

	bin := filepath.Join(t.TempDir(), "capsnet-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/capsnet-serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building capsnet-serve: %v\n%s", err, out)
	}

	srv := exec.Command(bin,
		"-demo-classes", "3",
		"-addr", "127.0.0.1:0",
		"-log-format", "json",
		"-log-level", "info",
		"-trace-sample", "1",
	)
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// The startup log line carries the bound address (-addr :0 makes
	// the OS pick the port) and every later line must be valid JSON
	// with a trace ID on request records.
	type logRec struct {
		Msg     string `json:"msg"`
		Addr    string `json:"addr"`
		TraceID string `json:"trace_id"`
		Status  int    `json:"status"`
	}
	scanner := bufio.NewScanner(stderr)
	addrCh := make(chan string, 1)
	logErrCh := make(chan error, 1)
	requestLogs := make(chan logRec, 64)
	go func() {
		defer close(requestLogs)
		for scanner.Scan() {
			line := scanner.Text()
			var rec logRec
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				select {
				case logErrCh <- fmt.Errorf("non-JSON log line %q: %v", line, err):
				default:
				}
				continue
			}
			switch rec.Msg {
			case "serving":
				select {
				case addrCh <- rec.Addr:
				default:
				}
			case "classify":
				requestLogs <- rec
			}
		}
	}()

	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(15 * time.Second):
		t.Fatal("server never logged its address")
	}

	// Size the image from the advertised model geometry and fire load.
	var info struct {
		Channels, Height, Width int
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

	// Graceful shutdown must exit 0.
	if err := srv.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited non-zero: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after SIGINT")
	}

	// Structured logs: every classify record is JSON with a trace ID.
	select {
	case err := <-logErrCh:
		t.Error(err)
	default:
	}
	count := 0
	for rec := range requestLogs {
		count++
		if len(rec.TraceID) != 16 || rec.Status != 200 {
			t.Errorf("bad request log record: %+v", rec)
		}
	}
	if count != n {
		t.Errorf("logged %d classify records, want %d", count, n)
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
