package pimcapsnet_bench

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"pimcapsnet/internal/cluster"
	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/wire"
)

// TestOverloadBrownoutE2E is the overload-smoke drill CI runs: the real
// capsnet-router over two real capsnet-serve replicas whose batch
// runners are slowed by the seeded queue-pressure injector
// (-chaos-pressure), while a deadline-carrying burst overruns them.
// The stack must degrade instead of failing:
//
//   - every client-visible status is 200, 429, 503, or 504 — never a
//     bare 500/502 — and 429s carry Retry-After;
//   - the brownout controller engages (requests are served at a shed
//     level) and steps back to level 0 once the burst passes;
//   - a wave of already-hopeless short-deadline requests drives at
//     least one cooperative batch abort on a replica;
//   - the scratch arena stays flat across the whole drill: aborted and
//     shed batches release their arena exactly like healthy ones.
func TestOverloadBrownoutE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the router and two replicas; skipped in -short")
	}

	bins := buildCmds(t, "capsnet-serve", "capsnet-router")
	router := startProc(t, bins[1], "routing",
		"-addr", "127.0.0.1:0",
		"-serve-bin", bins[0],
		"-replicas", "2",
		"-wait-ready", "2",
		"-retries", "2",
		"-hedge-delay", "-1s", // hedging off: overload must not be amplified
		"-expected-service", "50ms",
		"-log-format", "json",
		"--",
		"-demo-classes", "3",
		"-max-batch", "4",
		"-max-delay", "5ms",
		"-queue", "8",
		// Every batch is slowed 20–35ms for the whole drill: sustained
		// queue pressure for the brownout controller and a guaranteed
		// overrun of the short-deadline wave's 15ms budgets.
		"-chaos-pressure", "20ms",
		"-chaos-pressure-max", "35ms",
		"-brownout",
		"-brownout-engage", "5ms",
		"-brownout-recover", "1ms",
		"-brownout-hold", "30ms",
	)
	base := router.base

	var info struct {
		Channels, Height, Width int
	}
	getJSON(t, base+"/v1/model", &info)
	body, err := json.Marshal(map[string]any{"image": make([]float32, info.Channels*info.Height*info.Width)})
	if err != nil {
		t.Fatal(err)
	}
	var fleet []cluster.ReplicaInfo
	getJSON(t, base+"/v1/replicas", &fleet)
	if len(fleet) != 2 {
		t.Fatalf("fleet size %d, want 2: %+v", len(fleet), fleet)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	postTo := func(target string, budget time.Duration) (int, http.Header, error) {
		req, err := http.NewRequest(http.MethodPost, target+"/v1/classify", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		wire.SetDeadline(req.Header, time.Now().Add(budget))
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header, nil
	}
	post := func(budget time.Duration) (int, http.Header, error) { return postTo(base, budget) }

	// Phase 1 — saturating burst with healthy budgets. The worker count
	// deliberately dwarfs the fleet's batch capacity (2 replicas × 4
	// riders): a closed loop sized to capacity never queues, so the
	// surplus is what backs the admission queues up and hands the
	// brownout hysteresis its sustained queue-wait signal.
	const workers, perWorker = 24, 10
	const shortWorkers, shortPerWorker = 4, 15
	type result struct {
		code       int
		retryAfter string
	}
	results := make(chan result, workers*perWorker+shortWorkers*shortPerWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				code, hdr, err := post(5 * time.Second)
				if err != nil {
					t.Errorf("burst request: %v", err)
					return
				}
				results <- result{code, hdr.Get("Retry-After")}
			}
		}()
	}
	wg.Wait()

	// Phase 2 — a wave of requests whose 15ms budgets cannot survive a
	// 20–35ms pressured batch: whole batches expire mid-run, so the
	// cooperative cancel must fire and abort them.
	for w := 0; w < shortWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < shortPerWorker; i++ {
				code, hdr, err := post(15 * time.Millisecond)
				if err != nil {
					t.Errorf("short-deadline request: %v", err)
					return
				}
				results <- result{code, hdr.Get("Retry-After")}
			}
		}()
	}
	wg.Wait()
	close(results)

	var ok, rejected, expired int
	for r := range results {
		switch r.code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
			if r.retryAfter == "" {
				t.Error("429 without a Retry-After header")
			}
		case http.StatusServiceUnavailable:
			// Transient not-ready; acceptable degradation.
		case http.StatusGatewayTimeout:
			expired++
		default:
			t.Errorf("client-visible %d during overload (only 200/429/503/504 are acceptable)", r.code)
		}
	}
	t.Logf("burst outcome: %d ok, %d rejected (429), %d expired (504)", ok, rejected, expired)
	if ok == 0 {
		t.Error("no request succeeded during the burst; overload handling shed everything")
	}
	if expired == 0 {
		t.Error("no request expired (504) despite 15ms budgets against 20ms+ batches")
	}

	// The drill's interior must now be visible in the metrics: requests
	// served at a shed brownout level, at least one cooperative batch
	// abort, and router-side deadline exhaustion.
	var shedRequests, aborts float64
	for _, rep := range fleet {
		samples := obs.ParsePromText([]byte(getText(t, rep.URL+"/metrics")))
		aborts += seriesValue(t, samples, "capsnet_batch_aborted_total")
		// Level 0 is full fidelity; any other level shed work.
		for _, s := range samples.Family("capsnet_brownout_requests_total") {
			if v, err := s.Float(); err == nil && s.Label("level") != "0" {
				shedRequests += v
			}
		}
	}
	if shedRequests == 0 {
		t.Error("no requests served at a brownout level >= 1; the controller never engaged")
	}
	if aborts == 0 {
		t.Error("capsnet_batch_aborted_total = 0 across the fleet; no all-expired batch was aborted")
	}
	routerSamples := obs.ParsePromText([]byte(getText(t, base+"/metrics")))
	if v := seriesValue(t, routerSamples, "router_deadline_exhausted_total"); v < 1 {
		t.Errorf("router_deadline_exhausted_total = %g, want >= 1 after the short-deadline wave", v)
	}

	// Recovery: trickle sequential, well-budgeted requests (each batch
	// launch feeds the controller a calm queue-wait sample) until every
	// replica reports level 0 again. The trickle goes straight to each
	// replica: through the router every copy of this one body lands on
	// its home replica, and the other would never see a calm sample.
	replicaGauge := func(url, name string) float64 {
		return seriesValue(t, obs.ParsePromText([]byte(getText(t, url+"/metrics"))), name)
	}
	deadlineAt := time.Now().Add(60 * time.Second)
	for _, rep := range fleet {
		for replicaGauge(rep.URL, "capsnet_brownout_level") != 0 {
			if time.Now().After(deadlineAt) {
				t.Fatalf("replica %s brownout level did not return to 0 after the burst", rep.Name)
			}
			if _, _, err := postTo(rep.URL, 5*time.Second); err != nil {
				t.Fatalf("recovery request: %v", err)
			}
		}
	}

	// Arena flatness: the forward arenas must be at their high-water
	// marks and stay there — another request wave (including everything
	// the drill aborted or shed) must not grow them.
	before := make(map[string]float64)
	for _, rep := range fleet {
		before[rep.Name] = replicaGauge(rep.URL, "capsnet_arena_bytes")
	}
	for i := 0; i < 12; i++ {
		if _, _, err := post(5 * time.Second); err != nil {
			t.Fatalf("post-recovery request: %v", err)
		}
	}
	for _, rep := range fleet {
		after := replicaGauge(rep.URL, "capsnet_arena_bytes")
		//lint:ignore pimcaps/floateqcheck capsnet_arena_bytes is an integer byte count; flatness means exact equality, a tolerance would mask a leak
		if after != before[rep.Name] {
			t.Errorf("replica %s capsnet_arena_bytes moved %g -> %g after recovery; arena must stay flat", rep.Name, before[rep.Name], after)
		}
	}

	// Clean exit under the same contract as the chaos e2e.
	router.interrupt()
}
