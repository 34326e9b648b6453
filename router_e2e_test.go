package pimcapsnet_bench

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pimcapsnet/internal/cluster"
)

// TestRouterChaosE2E is the chaos end-to-end the CI router-smoke job
// runs: the real capsnet-router supervises three real capsnet-serve
// replicas, each armed (via internal/fault's hooks behind the
// -chaos-* flags) to stall AND corrupt its first batch, and one
// replica is SIGKILLed as traffic starts. The replica tier must turn
// every fault into retries or hedges — zero client-visible 5xx — and
// the killed replica must rejoin the fleet with a fresh process.
func TestRouterChaosE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the router and three replicas; skipped in -short")
	}

	bins := buildCmds(t, "capsnet-serve", "capsnet-router")
	// The router logs "routing" with its bound address once the fleet
	// is ready (same startup contract as capsnet-serve's "serving").
	router := startProc(t, bins[1], "routing",
		"-addr", "127.0.0.1:0",
		"-serve-bin", bins[0],
		"-replicas", "3",
		"-wait-ready", "3",
		"-probe-interval", "250ms",
		"-hedge-delay", "100ms",
		"-log-format", "json",
		"--",
		"-demo-classes", "3",
		"-chaos-stall", "1s",
		"-chaos-corrupt", "4",
	)
	base := router.base

	// Size the image from the model geometry proxied through the router.
	var info struct {
		Channels, Height, Width int
	}
	getJSON(t, base+"/v1/model", &info)
	imgLen := info.Channels * info.Height * info.Width

	makeBody := func(variant int) []byte {
		img := make([]float32, imgLen)
		for i := range img {
			img[i] = float32((i+variant)%11) / 11
		}
		b, err := json.Marshal(map[string]any{"image": img})
		if err != nil {
			t.Fatalf("marshaling body: %v", err)
		}
		return b
	}
	post := func(body []byte) (int, error) {
		resp, err := http.Post(base+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}

	// A body past the bound the replicas advertise on /readyz is refused
	// by the router itself; no replica sees it (checked on the router's
	// per-replica counters below).
	if code, err := post(append(bytes.Repeat([]byte(" "), 1<<20), makeBody(0)...)); err != nil || code != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 MiB body through the router: %d, %v; want 413 from the router", code, err)
	}

	// Pick the kill target and pre-craft a request whose placement home
	// is that replica, so the kill deterministically costs a retry.
	var fleet []cluster.ReplicaInfo
	getJSON(t, base+"/v1/replicas", &fleet)
	if len(fleet) != 3 {
		t.Fatalf("fleet size %d, want 3: %+v", len(fleet), fleet)
	}
	target := fleet[0]
	var targetBody []byte
	for v := 0; ; v++ {
		b := makeBody(1000 + v)
		if fleet[cluster.Home(cluster.Key(b), fleet)].Name == target.Name {
			targetBody = b
			break
		}
	}

	// SIGKILL the target, then fire the request homed on it. The
	// supervisor sees the exit within milliseconds and pulls the dead
	// replica from the candidate set, so this request lands on a live
	// replica — whose armed first batch stalls (hedge) and comes back
	// corrupted (retry), so both budgets provably get spent.
	if err := syscall.Kill(target.PID, syscall.SIGKILL); err != nil {
		t.Fatalf("killing replica %s (pid %d): %v", target.Name, target.PID, err)
	}
	const workers, perWorker = 3, 8
	// +1: the main goroutine also sends the killed-replica probe's code.
	codes := make(chan int, workers*perWorker+1)
	code, err := post(targetBody)
	if err != nil {
		t.Fatalf("request homed on killed replica: %v", err)
	}
	codes <- code

	// Concurrent load over the degraded fleet: every response must be
	// 2xx — the armed first-batch stalls (hedges), requests still routed
	// to the not-yet-probed dead replica (retries), and the supervised
	// restart all happen under this traffic.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				code, err := post(makeBody(w*perWorker + i))
				if err != nil {
					t.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
				codes <- code
			}
		}(w)
	}

	wg.Wait()
	close(codes)
	for code := range codes {
		if code >= 500 {
			t.Errorf("client-visible %d during chaos", code)
		}
	}

	// The killed replica must rejoin: same name, new process, restart
	// counted.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var now []cluster.ReplicaInfo
		getJSON(t, base+"/v1/replicas", &now)
		var cur cluster.ReplicaInfo
		for _, r := range now {
			if r.Name == target.Name {
				cur = r
			}
		}
		if cur.Ready && cur.PID != 0 && cur.PID != target.PID && cur.Restarts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never rejoined: %+v", target.Name, cur)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Router metrics: valid Prometheus text grammar, the new families
	// present, and the chaos visible in the counters (the kill cost at
	// least one retry; the armed stalls at least one hedge).
	metricsText := getText(t, base+"/metrics")
	samples := parseExposition(t, "/metrics", metricsText)
	for _, want := range []string{
		"router_replica_requests_total{replica=",
		"router_retries_total",
		"router_hedges_total",
		"router_replica_ready{replica=",
		"router_replica_restarts_total{replica=",
		"router_request_latency_seconds_count",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(metricsText, `code="413"`) {
		t.Errorf("a replica answered the oversized body:\n%s", metricsText)
	}
	if v := seriesValue(t, samples, "router_retries_total"); v < 1 {
		t.Errorf("router_retries_total = %g, want >= 1 with every replica corrupting its first batch", v)
	}
	if v := seriesValue(t, samples, "router_hedges_total"); v < 1 {
		t.Errorf("router_hedges_total = %g, want >= 1 with every replica stalling its first batch", v)
	}

	// Graceful shutdown: SIGINT drains the router and the fleet, exit 0.
	router.interrupt()
}
