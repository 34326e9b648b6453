package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/wire"
)

// testNetwork builds a small seeded network plus matching synthetic
// images for end-to-end tests.
func testNetwork(t testing.TB, classes int) (*capsnet.Network, [][]float32) {
	t.Helper()
	net, err := capsnet.New(capsnet.TinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	spec := dataset.Tiny(classes)
	gen := dataset.NewGenerator(spec)
	images := make([][]float32, 2*classes)
	for i := range images {
		images[i] = make([]float32, net.ImageLen())
		gen.Sample(images[i], i%classes)
	}
	return net, images
}

func postClassify(t testing.TB, url string, img []float32) (*http.Response, wire.ClassifyResponse) {
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
	var cr wire.ClassifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, cr
}

// TestServeMatchesDirectForwardBitForBit spins up the server on a tiny
// seeded network and checks that responses — probabilities and pose
// vectors — are bit-identical to a direct Network.Forward call, both
// for sequential requests and for concurrent requests that share
// micro-batches (per-sample routing makes batching numerically
// invisible).
func TestServeMatchesDirectForwardBitForBit(t *testing.T) {
	const classes = 3
	net, images := testNetwork(t, classes)
	srv, err := New(net, capsnet.ExactMath{}, Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Direct references, one forward per image (batch of one).
	type ref struct {
		probs []float32
		poses [][]float32
	}
	refs := make([]ref, len(images))
	nc, dd := net.Config.Classes, net.Config.DigitDim
	for i, img := range images {
		out := net.ForwardBatch([][]float32{img}, capsnet.ExactMath{})
		r := ref{probs: out.Lengths.Data()[:nc]}
		for j := 0; j < nc; j++ {
			r.poses = append(r.poses, out.Capsules.Data()[j*dd:(j+1)*dd])
		}
		refs[i] = r
	}

	check := func(i int, cr wire.ClassifyResponse) {
		t.Helper()
		for j, p := range cr.Probs {
			if math.Float32bits(p) != math.Float32bits(refs[i].probs[j]) {
				t.Fatalf("image %d class %d: served prob %x, direct %x",
					i, j, math.Float32bits(p), math.Float32bits(refs[i].probs[j]))
			}
		}
		for j, pose := range cr.Poses {
			for d, v := range pose {
				if math.Float32bits(v) != math.Float32bits(refs[i].poses[j][d]) {
					t.Fatalf("image %d pose %d dim %d: served %x, direct %x",
						i, j, d, math.Float32bits(v), math.Float32bits(refs[i].poses[j][d]))
				}
			}
		}
	}

	// Sequential: each request rides its own batch.
	for i, img := range images {
		resp, cr := postClassify(t, ts.URL, img)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("image %d: status %d", i, resp.StatusCode)
		}
		check(i, cr)
	}

	// Concurrent: requests share micro-batches; numerics must not move.
	var wg sync.WaitGroup
	for i, img := range images {
		wg.Add(1)
		go func(i int, img []float32) {
			defer wg.Done()
			resp, cr := postClassify(t, ts.URL, img)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("image %d: status %d", i, resp.StatusCode)
				return
			}
			check(i, cr)
		}(i, img)
	}
	wg.Wait()

	if srv.Metrics().Batches.Value() == 0 {
		t.Error("no batches recorded in metrics")
	}
}

// TestServerEndpoints covers model info, health, readiness, request
// validation, and the metrics exposition after traffic.
func TestServerEndpoints(t *testing.T) {
	const classes = 3
	net, images := testNetwork(t, classes)
	srv, err := New(net, capsnet.ExactMath{}, Config{MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz %d", resp.StatusCode)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz %d", resp.StatusCode)
	}

	var info wire.ModelInfo
	resp, body := get("/v1/model")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model %d", resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Classes != classes || info.Height != net.Config.InputH || info.RoutingMode != "per-sample" {
		t.Errorf("model info %+v inconsistent with config", info)
	}

	// Validation and method errors.
	if resp, _ := get("/v1/classify"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET classify %d, want 405", resp.StatusCode)
	}
	if resp, _ := postClassify(t, ts.URL, []float32{1, 2, 3}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short image %d, want 400", resp.StatusCode)
	}

	// Real traffic, then the exposition must show non-zero histograms.
	if resp, _ := postClassify(t, ts.URL, images[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("classify %d", resp.StatusCode)
	}
	_, metricsText := get("/metrics")
	for _, want := range []string{
		"capsnet_batches_total 1",
		fmt.Sprintf("capsnet_routing_iterations_total %d", net.Config.RoutingIterations),
		`capsnet_batch_size_bucket{le="1"} 1`,
		// Three classify attempts hit the handler: the 405, the 400,
		// and the successful POST — every one observes latency.
		"capsnet_request_latency_seconds_count 3",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsText)
		}
	}

	// Draining flips readiness but not liveness.
	srv.StartDraining()
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz %d, want 503", resp.StatusCode)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("draining healthz %d, want 200", resp.StatusCode)
	}
}

// TestReadyzLoadBody covers the machine-readable /readyz contract the
// router tier's prober consumes: 200 with a JSON wire.Load while
// serving, 503 with status "draining" afterwards, and load signals
// (inflight, batch occupancy) that reflect real traffic. The status
// codes must stay exactly the pre-JSON 200/503 pair.
func TestReadyzLoadBody(t *testing.T) {
	const classes = 3
	net, images := testNetwork(t, classes)
	srv, err := New(net, capsnet.ExactMath{}, Config{MaxBatch: 4, MaxDelay: time.Millisecond, QueueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	readyz := func() (int, wire.Load) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("readyz Content-Type %q, want application/json", ct)
		}
		var info wire.Load
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatalf("readyz body is not wire.Load JSON: %v", err)
		}
		return resp.StatusCode, info
	}

	code, info := readyz()
	if code != http.StatusOK || info.Status != "ready" {
		t.Fatalf("idle readyz: code %d status %q, want 200 ready", code, info.Status)
	}
	if info.QueueCapacity != 16 || info.MaxBatch != 4 {
		t.Errorf("configured bounds not reported: %+v", info)
	}
	if info.QueueDepth != 0 || info.Inflight != 0 || info.BatchOccupancy != 0 {
		t.Errorf("idle server reports load: %+v", info)
	}
	if info.PID <= 0 {
		t.Errorf("readyz PID %d, want the serving process id", info.PID)
	}

	// Traffic moves the signals: after a completed request, inflight is
	// back to zero but the last batch's occupancy is visible.
	if resp, _ := postClassify(t, ts.URL, images[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("classify %d", resp.StatusCode)
	}
	if _, info = readyz(); info.BatchOccupancy <= 0 || info.BatchOccupancy > 1 {
		t.Errorf("post-traffic occupancy %g, want in (0, 1]", info.BatchOccupancy)
	}
	if info.Inflight != 0 {
		t.Errorf("post-traffic inflight %d, want 0", info.Inflight)
	}

	srv.StartDraining()
	code, info = readyz()
	if code != http.StatusServiceUnavailable || info.Status != "draining" {
		t.Errorf("draining readyz: code %d status %q, want 503 draining", code, info.Status)
	}
}

// TestBatcherInflightGauge pins the inflight gauge against a gated
// batcher: admitted-but-unserved requests count, and the gauge returns
// to zero once they complete.
func TestBatcherInflightGauge(t *testing.T) {
	const classes = 3
	net, images := testNetwork(t, classes)
	cfg, _ := onManualClock(Config{MaxBatch: 1, QueueSize: 4})
	m := NewMetrics()
	b := NewBatcher(cfg, echoRun, m, net.Config.RoutingIterations)
	srv := newServer(net, cfg, b, m) // batcher deliberately not started
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postClassify(t, ts.URL, images[0])
	}()
	// Submit counts a request before it queues it, so a depth of one
	// already implies an inflight of one, with no window in between.
	waitDepth(t, b, 1)
	if got, depth := b.Inflight(), b.QueueDepth(); got < depth || got != 1 {
		t.Errorf("inflight %d with %d queued, want 1", got, depth)
	}
	b.Start()
	wg.Wait()
	// Submit uncounts before the handler writes the response the client
	// has now read.
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight %d after completion, want 0", got)
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerBackpressure429 wires a server around a batcher whose
// RunFunc is gated shut, fills the admission queue, and checks the
// HTTP layer returns 429 with Retry-After.
func TestServerBackpressure429(t *testing.T) {
	const classes = 3
	net, images := testNetwork(t, classes)
	cfg, _ := onManualClock(Config{MaxBatch: 1, QueueSize: 1})
	m := NewMetrics()
	b := NewBatcher(cfg, echoRun, m, net.Config.RoutingIterations)
	srv := newServer(net, cfg, b, m) // batcher deliberately not started
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if resp, _ := postClassify(t, ts.URL, images[0]); resp.StatusCode != http.StatusOK {
			t.Errorf("queued request finished %d, want 200", resp.StatusCode)
		}
	}()
	waitDepth(t, b, 1)
	resp, _ := postClassify(t, ts.URL, images[1])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	b.Start()
	wg.Wait()
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerDeadlineOnItsClock: the X-Deadline budget is judged on the
// server's clock. On a clock an hour ahead of the runtime's, a deadline
// a minute out by wall time has already passed: 504 on arrival.
func TestServerDeadlineOnItsClock(t *testing.T) {
	net, images := testNetwork(t, 3)
	srv, err := New(net, capsnet.ExactMath{}, Config{MaxBatch: 1, Clock: obs.NewManualClock(time.Now().Add(time.Hour))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(wire.ClassifyRequest{Image: images[0]})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", bytes.NewReader(body))
	wire.SetDeadline(req.Header, time.Now().Add(time.Minute))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if got := srv.Metrics().DeadlinesExpired.Value(); got != 1 {
		t.Fatalf("capsnet_deadline_expired_total = %d, want 1", got)
	}
}

// TestServerShutdownRejectsNewWork: after Close, classify returns 503.
func TestServerShutdown(t *testing.T) {
	const classes = 3
	net, images := testNetwork(t, classes)
	srv, err := New(net, capsnet.ExactMath{}, Config{MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := postClassify(t, ts.URL, images[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown classify %d", resp.StatusCode)
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postClassify(t, ts.URL, images[0]); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown classify %d, want 503", resp.StatusCode)
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// countingReader counts the bytes a handler pulls from a request body.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestClassifyBodyBound: a classify body is read through the bound
// /readyz advertises as body_limit, wire.ClassifyBodyLimit of the image
// length — the one the router enforces in front of the replica; the
// reply bound it advertises beside it, reply_limit, is
// wire.ClassifyReplyLimit of the model's classes and capsule dimension. A valid
// body padded with whitespace to exactly the bound classifies; one byte
// more is 413, counted under its own code; and a body far past the
// bound is not read beyond it.
func TestClassifyBodyBound(t *testing.T) {
	net, images := testNetwork(t, 3)
	srv, err := New(net, capsnet.ExactMath{}, Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var load wire.Load
	if err := json.Unmarshal(rec.Body.Bytes(), &load); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	if want := wire.ClassifyBodyLimit(net.ImageLen()); load.BodyLimit != want {
		t.Fatalf("readyz body_limit %d, want %d", load.BodyLimit, want)
	}
	if want := wire.ClassifyReplyLimit(net.Config.Classes, net.Config.DigitDim); load.ReplyLimit != want {
		t.Fatalf("readyz reply_limit %d, want %d", load.ReplyLimit, want)
	}
	limit := int(load.BodyLimit)
	valid, err := json.MarshalIndent(wire.ClassifyRequest{Image: images[0]}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	post := func(size int) (code, read int) {
		body := &countingReader{r: io.MultiReader(strings.NewReader(strings.Repeat(" ", size-len(valid))), bytes.NewReader(valid))}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/classify", body))
		return w.Code, body.n
	}
	if code, _ := post(limit); code != http.StatusOK {
		t.Fatalf("a valid body of exactly %d bytes: status %d, want 200", limit, code)
	}
	if code, _ := post(limit + 1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a body of %d bytes: status %d, want 413", limit+1, code)
	}
	if code, read := post(limit + 1<<20); code != http.StatusRequestEntityTooLarge || read > limit+1 {
		t.Fatalf("a body of %d bytes: status %d after reading %d bytes, want 413 after at most %d", limit+1<<20, code, read, limit+1)
	}
	var sb strings.Builder
	srv.Metrics().WriteText(&sb)
	if want := `capsnet_responses_total{code="413"} 2`; !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition lacks %s", want)
	}
}

// TestClassifyBodyLimitAdmitsLongestEncodings: an image of the finite
// float32 values with the longest JSON literals, written by
// encoding/json indented and by an encoder that spells every value as
// a float64 with 17 significant digits and deep indentation, fits the
// bound with room to spare.
func TestClassifyBodyLimitAdmitsLongestEncodings(t *testing.T) {
	const n = 784
	worst := []float32{-math.SmallestNonzeroFloat32, -math.MaxFloat32, -1.1754944e-38, -1.2345678e-7, -123456.79}
	img := make([]float32, n)
	for i := range img {
		img[i] = worst[i%len(worst)]
	}
	indented, err := json.MarshalIndent(wire.ClassifyRequest{Image: img}, "", "\t\t\t\t")
	if err != nil {
		t.Fatal(err)
	}
	var wide strings.Builder
	wide.WriteString("{\n  \"image\": [")
	for i, v := range img {
		if i > 0 {
			wide.WriteByte(',')
		}
		fmt.Fprintf(&wide, "\n%s%.16e", strings.Repeat(" ", 21), float64(v))
	}
	wide.WriteString("\n  ]\n}\n")
	limit := wire.ClassifyBodyLimit(n)
	for name, size := range map[string]int{"encoding/json indented": len(indented), "float64, 17 digits": wide.Len()} {
		if int64(size) > limit {
			t.Errorf("%s: %d bytes, over the %d-byte bound", name, size, limit)
		}
	}
}
