package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/fault"
	"pimcapsnet/internal/wire"
)

// campaignSeed is the single seed every injector in this file derives
// from; reproduce a failing campaign by re-running with the same seed.
const campaignSeed = 0x9e3779b9

// postRaw posts one classify request and returns the status code and
// raw response body, for asserting on error payloads.
func postRaw(t *testing.T, url string, img []float32) (int, string) {
	t.Helper()
	body, err := json.Marshal(wire.ClassifyRequest{Image: img})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// mustServe asserts the server still answers a clean request with 200
// and finite probabilities — called after every injected fault to prove
// the fault was isolated rather than fatal.
func mustServe(t *testing.T, url string, img []float32) string {
	t.Helper()
	code, body := postRaw(t, url, img)
	if code != http.StatusOK {
		t.Fatalf("clean request after fault: status %d, body %s", code, body)
	}
	var cr wire.ClassifyResponse
	if err := json.Unmarshal([]byte(body), &cr); err != nil {
		t.Fatal(err)
	}
	for i, p := range cr.Probs {
		if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
			t.Fatalf("prob %d is %v on the clean path", i, p)
		}
	}
	return body
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// TestCampaignWeightBitFlips injects seeded single-event upsets into
// the digit-layer weight tensor while the server runs. The contract is
// graceful degradation, not correctness under corruption: every
// response is either 200 with finite numbers or a typed 500 — never a
// crash, never NaN JSON — and restoring the weights restores
// bit-identical behavior.
func TestCampaignWeightBitFlips(t *testing.T) {
	net, images := testNetwork(t, 3)
	srv, err := New(net, capsnet.ExactMath{}, Config{MaxBatch: 1, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	baseline := mustServe(t, ts.URL, images[0])

	weights := net.Digit.Weights.Data()
	pristine := append([]float32(nil), weights...)
	inj := fault.New(campaignSeed)
	// Sequential requests with MaxBatch=1 mean no forward pass is in
	// flight between a response and the next POST, so mutating the
	// weight tensor here is race-free.
	for round := 0; round < 4; round++ {
		inj.FlipBits(weights, 1<<round) // 1, 2, 4, 8 upsets
		code, body := postRaw(t, ts.URL, images[0])
		switch code {
		case http.StatusOK:
			var cr wire.ClassifyResponse
			if err := json.Unmarshal([]byte(body), &cr); err != nil {
				t.Fatal(err)
			}
			for i, p := range cr.Probs {
				if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
					t.Fatalf("seed %#x round %d: prob %d is %v in a 200 response", campaignSeed, round, i, p)
				}
			}
		case http.StatusInternalServerError:
			if !strings.Contains(body, "non-finite") {
				t.Fatalf("seed %#x round %d: 500 without the typed non-finite error: %s", campaignSeed, round, body)
			}
		default:
			t.Fatalf("seed %#x round %d: status %d, body %s", campaignSeed, round, code, body)
		}
	}

	copy(weights, pristine)
	if got := mustServe(t, ts.URL, images[0]); got != baseline {
		t.Fatalf("restored weights do not reproduce the baseline response\nbaseline: %s\ngot:      %s", baseline, got)
	}
}

// gatedNaNExp is an approximate-math stand-in whose Exp saturates to
// NaN while the gate is armed — the worst case the PE bit-trick path
// degrades to at its domain edges. It is not capsnet.ExactMath, so the
// finite-value guard re-routes affected samples with exact math.
type gatedNaNExp struct {
	capsnet.ExactMath
	g *fault.Gate
}

func (m gatedNaNExp) Exp(x float32) float32 {
	if m.g.Fire() {
		return float32(math.NaN())
	}
	return m.ExactMath.Exp(x)
}

// TestCampaignApproxMathNaNFallsBackToExact arms the NaN exponential
// for one request: the client still gets 200 with finite
// probabilities because the routing guard re-runs the sample with
// exact math, and the fallback shows up in /metrics.
func TestCampaignApproxMathNaNFallsBackToExact(t *testing.T) {
	net, images := testNetwork(t, 3)
	var gate fault.Gate
	srv, err := New(net, gatedNaNExp{g: &gate}, Config{MaxBatch: 1, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	baseline := mustServe(t, ts.URL, images[0])

	gate.Arm(1 << 20) // poison every Exp of the next forward pass
	body := mustServe(t, ts.URL, images[0])
	gate.Disarm()
	if body != baseline {
		t.Fatalf("exact-math fallback is not bit-identical to the exact baseline\nbaseline: %s\ngot:      %s", baseline, body)
	}
	if got := srv.Metrics().RoutingFallbacks.Value(); got != 1 {
		t.Fatalf("routing fallbacks %d, want 1", got)
	}
	if m := scrapeMetrics(t, ts.URL); !strings.Contains(m, "capsnet_routing_exact_fallbacks_total 1") {
		t.Fatalf("/metrics missing fallback counter:\n%s", m)
	}

	if got := mustServe(t, ts.URL, images[0]); got != baseline {
		t.Fatal("disarmed gate does not restore baseline behavior")
	}
	if got := srv.Metrics().RoutingFallbacks.Value(); got != 1 {
		t.Fatalf("fallback counter moved to %d on the clean path", got)
	}
}

// TestCampaignRoutingInputCorruption poisons the routing inputs
// themselves (post-convolution activations), which exact math cannot
// recover: the request must fail alone with the typed 500, and the
// next request must succeed.
func TestCampaignRoutingInputCorruption(t *testing.T) {
	net, images := testNetwork(t, 3)
	inj := fault.New(campaignSeed)
	var gate fault.Gate
	net.RoutingInputHook = fault.CorruptSliceHook(inj, &gate, 8)
	srv, err := New(net, capsnet.ExactMath{}, Config{MaxBatch: 1, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mustServe(t, ts.URL, images[0]) // gate disarmed: hook is free

	gate.Arm(1)
	code, body := postRaw(t, ts.URL, images[0])
	if code != http.StatusInternalServerError || !strings.Contains(body, "non-finite") {
		t.Fatalf("corrupted routing inputs: status %d, body %s", code, body)
	}
	mustServe(t, ts.URL, images[1])
}

// TestCampaignBatchCorruption injects NaN/Inf into the assembled batch
// images via the pre-run hook — corruption upstream of the whole
// forward pass. The poisoned request fails with a typed 500; the
// server keeps serving.
func TestCampaignBatchCorruption(t *testing.T) {
	net, images := testNetwork(t, 3)
	inj := fault.New(campaignSeed + 1)
	var gate fault.Gate
	srv, err := New(net, capsnet.ExactMath{}, Config{
		MaxBatch: 1,
		MaxDelay: time.Millisecond,
		PreRunHook: fault.ChainBatchHooks(
			nil, // chain must skip nil entries
			fault.CorruptBatchHook(inj, &gate, 16),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mustServe(t, ts.URL, images[0])

	gate.Arm(1)
	code, body := postRaw(t, ts.URL, images[0])
	if code != http.StatusInternalServerError || !strings.Contains(body, "non-finite") {
		t.Fatalf("corrupted batch: status %d, body %s", code, body)
	}
	mustServe(t, ts.URL, images[1])
}

// TestCampaignInjectedPanic forces a panic on the inference goroutine.
// The batch is isolated — its request gets the typed 500, the
// recovered-panic counter moves, and the very next request succeeds on
// the same runner.
func TestCampaignInjectedPanic(t *testing.T) {
	net, images := testNetwork(t, 3)
	var gate fault.Gate
	srv, err := New(net, capsnet.ExactMath{}, Config{
		MaxBatch:   1,
		MaxDelay:   time.Millisecond,
		PreRunHook: fault.PanicBatchHook(&gate),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mustServe(t, ts.URL, images[0])

	gate.Arm(2) // two consecutive panicking batches, both isolated
	for i := 0; i < 2; i++ {
		code, body := postRaw(t, ts.URL, images[0])
		if code != http.StatusInternalServerError || !strings.Contains(body, "recovered") {
			t.Fatalf("injected panic %d: status %d, body %s", i, code, body)
		}
	}
	if got := srv.Metrics().PanicsRecovered.Value(); got != 2 {
		t.Fatalf("recovered panics %d, want 2", got)
	}
	mustServe(t, ts.URL, images[1])
	if m := scrapeMetrics(t, ts.URL); !strings.Contains(m, "capsnet_panics_recovered_total 2") {
		t.Fatalf("/metrics missing panic counter:\n%s", m)
	}
}

// TestCampaignWatchdogStall stalls one batch past the configured
// deadline. The watchdog fails it with the typed 500 and the queue
// keeps draining behind the abandoned inference goroutine.
func TestCampaignWatchdogStall(t *testing.T) {
	net, images := testNetwork(t, 3)
	var gate fault.Gate
	srv, err := New(net, capsnet.ExactMath{}, Config{
		MaxBatch:      1,
		MaxDelay:      time.Millisecond,
		BatchDeadline: 50 * time.Millisecond,
		PreRunHook:    fault.StallBatchHook(&gate, 2*time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mustServe(t, ts.URL, images[0])

	gate.Arm(1)
	start := time.Now()
	code, body := postRaw(t, ts.URL, images[0])
	if code != http.StatusInternalServerError || !strings.Contains(body, "deadline") {
		t.Fatalf("stalled batch: status %d, body %s", code, body)
	}
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Fatalf("watchdog did not bound the stall: request took %v", elapsed)
	}
	if got := srv.Metrics().WatchdogBatches.Value(); got != 1 {
		t.Fatalf("watchdog batches %d, want 1", got)
	}
	// The abandoned goroutine is still sleeping; the server must serve
	// new traffic meanwhile.
	mustServe(t, ts.URL, images[1])
	if m := scrapeMetrics(t, ts.URL); !strings.Contains(m, "capsnet_watchdog_failed_batches_total 1") {
		t.Fatalf("/metrics missing watchdog counter:\n%s", m)
	}
}

// TestCampaignCheckpointCorruption flips one bit in an on-disk
// checkpoint: LoadCheckpoint must reject it with the typed error and
// count the rejection, while the intact file loads cleanly.
func TestCampaignCheckpointCorruption(t *testing.T) {
	net, _ := testNetwork(t, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	m := NewMetrics()
	if _, err := LoadCheckpoint(path, m); err != nil {
		t.Fatalf("intact checkpoint rejected: %v", err)
	}
	if got := m.CheckpointRejections.Value(); got != 0 {
		t.Fatalf("rejection counter %d after a clean load", got)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04
	corrupt := filepath.Join(dir, "corrupt.ckpt")
	if err := os.WriteFile(corrupt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadCheckpoint(corrupt, m)
	if !errors.Is(err, capsnet.ErrCorruptCheckpoint) {
		t.Fatalf("corrupt checkpoint: %v, want ErrCorruptCheckpoint", err)
	}
	if got := m.CheckpointRejections.Value(); got != 1 {
		t.Fatalf("rejection counter %d, want 1", got)
	}
}

// TestCampaignDisabledInjectorsAreInvisible is the acceptance check
// for the off state: with every hook nil and every gate disarmed, two
// servers — one wired exactly like the campaign, one plain — produce
// byte-identical responses.
func TestCampaignDisabledInjectorsAreInvisible(t *testing.T) {
	net, images := testNetwork(t, 3)
	inj := fault.New(campaignSeed)
	var gate fault.Gate // never armed

	plain, err := New(net, capsnet.ExactMath{}, Config{MaxBatch: 1, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close(context.Background())
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	want := make([]string, len(images))
	for i, img := range images {
		want[i] = mustServe(t, tsPlain.URL, img)
	}

	net.RoutingInputHook = fault.CorruptSliceHook(inj, &gate, 8)
	defer func() { net.RoutingInputHook = nil }()
	wired, err := New(net, capsnet.ExactMath{}, Config{
		MaxBatch:   1,
		MaxDelay:   time.Millisecond,
		PreRunHook: fault.ChainBatchHooks(fault.PanicBatchHook(&gate), fault.CorruptBatchHook(inj, &gate, 8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wired.Close(context.Background())
	tsWired := httptest.NewServer(wired.Handler())
	defer tsWired.Close()

	for i, img := range images {
		if got := mustServe(t, tsWired.URL, img); got != want[i] {
			t.Fatalf("image %d: disarmed injectors changed the response\nplain: %s\nwired: %s", i, want[i], got)
		}
	}
	m := wired.Metrics()
	if m.PanicsRecovered.Value()+m.WatchdogBatches.Value()+m.RoutingFallbacks.Value() != 0 {
		t.Fatal("robustness counters moved with every injector disarmed")
	}
}
