//pimcaps:bitexact
package pimcapsnet_bench

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/trace"
	"pimcapsnet/internal/wire"
)

// flightDoc mirrors the /debug/requests/flight JSON shape.
type flightDoc struct {
	Pinned   uint64 `json:"pinned_total"`
	Retained int    `json:"retained"`
	Entries  []struct {
		TraceID string   `json:"trace_id"`
		Status  int      `json:"status"`
		Reasons []string `json:"reasons"`
	} `json:"entries"`
}

// TestFleetObservabilityE2E is the fleet observability smoke the CI
// obs-smoke job runs: a real router over two real replicas with
// tracing and the flight recorder armed, chaos flags forcing a slow
// retried request and a tiny deadline forcing a 504. It asserts the
// tail sampler pinned exactly the bad requests, /debug/trace/fleet
// merges the retried request's spans across the router and replica
// process tracks, and /metrics/fleet re-exports every replica with
// exactly merged histograms.
func TestFleetObservabilityE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the router and two replicas; skipped in -short")
	}

	bins := buildCmds(t, "capsnet-serve", "capsnet-router", "capsnet-load")
	router := startProc(t, bins[1], "routing",
		"-addr", "127.0.0.1:0",
		"-serve-bin", bins[0],
		"-replicas", "2",
		"-wait-ready", "2",
		"-probe-interval", "250ms",
		"-hedge-delay", "-1ms", // hedging off so the armed stall shows up as latency
		"-trace-sample", "1",
		"-flight-buffer", "32",
		"-slow-threshold", "200ms",
		"-log-format", "json",
		"--",
		"-demo-classes", "3",
		"-trace-sample", "1",
		"-chaos-stall", "400ms",
		"-chaos-corrupt", "4",
	)
	base := router.base

	var info struct {
		Channels, Height, Width int
	}
	getJSON(t, base+"/v1/model", &info)
	img := make([]float32, info.Channels*info.Height*info.Width)
	for i := range img {
		img[i] = float32(i%11) / 11
	}
	body, _ := json.Marshal(map[string]any{"image": img})

	post := func(hdr http.Header) (*http.Response, error) {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/classify", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		for k, vs := range hdr {
			req.Header[k] = vs
		}
		return http.DefaultClient.Do(req)
	}

	// 1. The slow, retried request: every replica's first batch stalls
	// 400ms and corrupts, so this request burns retries across the
	// fleet and lands well over the 200ms slow threshold.
	resp, err := post(nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos-warmed request: status %d", resp.StatusCode)
	}
	slowID := resp.Header.Get("X-Trace-Id")
	if len(slowID) != 16 {
		t.Fatalf("X-Trace-Id %q", slowID)
	}

	// 2. The failing request: an already-expired deadline must come
	// back 504 without a replica answering.
	hdr := http.Header{}
	wire.SetDeadline(hdr, time.Now().Add(-100*time.Millisecond))
	resp, err = post(hdr)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-deadline request: status %d, want 504", resp.StatusCode)
	}

	// 3. Healthy traffic that must NOT be pinned.
	for i := 0; i < 5; i++ {
		resp, err := post(nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthy request %d: status %d", i, resp.StatusCode)
		}
	}

	// Flight recorder: exactly the slow 200 and the 504, nothing else.
	var flight flightDoc
	getJSON(t, base+"/debug/requests/flight", &flight)
	if flight.Retained != 2 {
		t.Fatalf("flight retained %d entries, want 2 (slow + 504): %+v", flight.Retained, flight.Entries)
	}
	var sawSlow, saw504 bool
	for _, e := range flight.Entries {
		switch {
		case e.TraceID == slowID:
			sawSlow = true
			if e.Status != http.StatusOK || !hasReason(e.Reasons, "slow") {
				t.Errorf("slow entry = status %d reasons %v, want 200 + slow", e.Status, e.Reasons)
			}
		case e.Status == http.StatusGatewayTimeout:
			saw504 = true
			if !hasReason(e.Reasons, "deadline_exhausted") || !hasReason(e.Reasons, "status_5xx") {
				t.Errorf("504 entry reasons %v, want deadline_exhausted + status_5xx", e.Reasons)
			}
		default:
			t.Errorf("unexpected flight entry (a fast 200 got pinned?): %+v", e)
		}
	}
	if !sawSlow || !saw504 {
		t.Fatalf("flight missing expected entries: %+v", flight.Entries)
	}

	// Fleet trace: the retried request's spans from the router and both
	// replicas merged onto one timeline with per-process tracks.
	traceResp, err := http.Get(base + "/debug/trace/fleet?trace=" + slowID)
	if err != nil {
		t.Fatal(err)
	}
	log, err := trace.ReadJSON(traceResp.Body)
	traceResp.Body.Close()
	if err != nil {
		t.Fatalf("fleet trace round-trip: %v", err)
	}
	pids := map[string]int{} // process name → pid
	for _, e := range log.Events() {
		if e.Ph == "M" && e.Name == "process_name" {
			name, _ := e.Args["name"].(string)
			pids[name] = e.PID
		}
	}
	routerPID, ok := pids["router"]
	if !ok {
		t.Fatalf("fleet trace missing router process track: %v", pids)
	}
	replicaTracks := 0
	for name, pid := range pids {
		if strings.HasPrefix(name, "replica-") {
			replicaTracks++
			if pid == routerPID {
				t.Errorf("replica track %s shares the router pid", name)
			}
		}
	}
	// The retried request crossed both replicas; require both tracks.
	if replicaTracks != 2 {
		t.Fatalf("fleet trace has %d replica process tracks, want 2: %v", replicaTracks, pids)
	}
	routerAttempts := 0
	replicaStageSpans := 0
	for _, e := range log.Events() {
		if e.TS < 0 {
			t.Errorf("event %q has negative ts %v", e.Name, e.TS)
		}
		switch {
		case e.Ph == "X" && e.Name == "attempt" && e.PID == routerPID:
			routerAttempts++
			if e.Args["attempt"] == "" || e.Args["hedge"] == "" {
				t.Errorf("attempt span missing attribution args: %v", e.Args)
			}
		case e.Ph == "X" && e.Name == "forward" && e.PID != routerPID:
			replicaStageSpans++
			// Inherited attribution: the replica's forward span names the
			// attempt that launched it.
			if e.Args["attempt"] == "" {
				t.Errorf("replica forward span missing inherited attempt tag: %v", e.Args)
			}
		}
	}
	if routerAttempts < 2 {
		t.Errorf("fleet trace shows %d router attempt spans, want >= 2 (the request was retried)", routerAttempts)
	}
	if replicaStageSpans < 2 {
		t.Errorf("fleet trace shows %d replica forward spans, want >= 2 (both replicas served an attempt)", replicaStageSpans)
	}

	// Fleet metrics: valid text grammar, every replica re-exported, and
	// the merged latency histogram exactly the sum of the re-exported
	// per-replica series in the same document.
	fleetText := getText(t, base+"/metrics/fleet")
	fleetSamples := parseExposition(t, "/metrics/fleet", fleetText)
	for _, want := range []string{
		"router_fleet_replicas_scraped 2",
		"router_fleet_scrape_failures 0",
		`capsnet_build_info{replica="r0"`,
		`capsnet_build_info{replica="r1"`,
		"router_build_info{",
		`router_slo_availability_ratio{window=`,
		`router_slo_error_budget_burn_rate{window=`,
	} {
		if !strings.Contains(fleetText, want) {
			t.Errorf("/metrics/fleet missing %q", want)
		}
	}
	assertMergedHistogram(t, fleetSamples, "capsnet_request_latency_seconds_sum")
	assertMergedHistogram(t, fleetSamples, "capsnet_request_latency_seconds_count")

	// The load client's router view: after its reference run it prints
	// the per-replica request distribution and health table, one row
	// per replica.
	out, err := exec.Command(bins[2], "-target", "router", "-addr", base, "-rate", "20", "-duration", "1s").CombinedOutput()
	if err != nil {
		t.Fatalf("capsnet-load -target router: %v\n%s", err, out)
	}
	for _, table := range []string{"per-replica request distribution", "per-replica health"} {
		rows := tableRows(string(out), table)
		if !slices.Contains(rows, "r0") || !slices.Contains(rows, "r1") {
			t.Errorf("capsnet-load %q table has rows %v, want r0 and r1:\n%s", table, rows, out)
		}
	}

	// Graceful shutdown.
	router.interrupt()
}

// tableRows returns the first field of each row of the table printed
// under the line starting with heading, up to the next blank line.
func tableRows(out, heading string) []string {
	var rows []string
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, heading):
			in = true
		case in && strings.TrimSpace(line) == "":
			return rows
		case in:
			rows = append(rows, strings.Fields(line)[0])
		}
	}
	return rows
}

func hasReason(reasons []string, want string) bool {
	for _, r := range reasons {
		if r == want {
			return true
		}
	}
	return false
}

// assertMergedHistogram checks the unlabeled merged series equals the
// sum of the {replica}-labelled re-exports of the same family, summed
// in document order — exactly, since both sides add the same parsed
// values in the same order.
func assertMergedHistogram(t *testing.T, samples obs.PromSamples, family string) {
	t.Helper()
	merged := seriesValue(t, samples, family)
	var sum float64
	replicaSeries := 0
	for _, s := range samples.Family(family) {
		if s.Label("replica") == "" {
			continue
		}
		v, err := s.Float()
		if err != nil {
			t.Fatalf("replica %s value %q: %v", family, s.Value, err)
		}
		sum += v
		replicaSeries++
	}
	if replicaSeries != 2 {
		t.Fatalf("found %d per-replica %s series, want 2", replicaSeries, family)
	}
	if merged != sum {
		t.Errorf("merged %s = %v, want exactly %v (sum of per-replica series)", family, merged, sum)
	}
}
