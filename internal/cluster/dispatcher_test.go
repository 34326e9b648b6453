package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/serve"
	"pimcapsnet/internal/wire"
)

// staticPool is a fixed replica set over httptest servers.
type staticPool struct {
	mu   sync.Mutex
	reps []ReplicaInfo
}

func (p *staticPool) Snapshot() []ReplicaInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ReplicaInfo{}, p.reps...)
}

func (p *staticPool) setReady(name string, ready bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.reps {
		if p.reps[i].Name == name {
			p.reps[i].Ready = ready
		}
	}
}

const goodBody = `{"class":1,"probs":[0.1,0.8,0.1],"poses":null,"batch":1}`

// fakeReplica serves /v1/classify with the given handler and tracks
// request counts.
func fakeReplica(t *testing.T, name string, h http.HandlerFunc) (*httptest.Server, ReplicaInfo) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", h)
	mux.HandleFunc("/v1/model", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"channels":1,"height":8,"width":8,"classes":3}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, ReplicaInfo{Name: name, URL: srv.URL, Ready: true}
}

func okHandler(hits *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		w.Header().Set("X-Trace-Id", r.Header.Get("X-Trace-Id"))
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, goodBody)
	}
}

func newTestDispatcher(t *testing.T, cfg DispatcherConfig) *Dispatcher {
	t.Helper()
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatalf("NewDispatcher: %v", err)
	}
	return d
}

func classify(t *testing.T, d *Dispatcher, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	d.Handler().ServeHTTP(w, req)
	return w
}

func TestDispatchHappyPath(t *testing.T) {
	var hits atomic.Int64
	_, rep := fakeReplica(t, "r0", okHandler(&hits))
	d := newTestDispatcher(t, DispatcherConfig{Pool: &staticPool{reps: []ReplicaInfo{rep}}})

	w := classify(t, d, `{"image":[0.5]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	var resp wire.ClassifyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding routed response: %v", err)
	}
	if resp.Class != 1 || len(resp.Probs) != 3 {
		t.Fatalf("routed response mangled: %+v", resp)
	}
	if hits.Load() != 1 {
		t.Fatalf("replica hit %d times, want 1", hits.Load())
	}
	if got := w.Header().Get("X-Trace-Id"); got == "" {
		t.Fatalf("router did not stamp X-Trace-Id")
	}
	if got := d.Metrics().ReplicaRequests.With("r0", "200").Value(); got != 1 {
		t.Fatalf("router_replica_requests_total{r0,200} = %d, want 1", got)
	}
}

func TestDispatchPropagatesTraceID(t *testing.T) {
	var seen atomic.Value
	_, rep := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get("X-Trace-Id"))
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, goodBody)
	})
	d := newTestDispatcher(t, DispatcherConfig{Pool: &staticPool{reps: []ReplicaInfo{rep}}})

	w := classify(t, d, `{"image":[0.5]}`, map[string]string{"X-Trace-Id": "feedfacecafebeef"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if got := seen.Load(); got != "feedfacecafebeef" {
		t.Fatalf("replica saw trace id %v, want caller's", got)
	}
	if got := w.Header().Get("X-Trace-Id"); got != "feedfacecafebeef" {
		t.Fatalf("response trace id %q, want caller's", got)
	}
}

func TestDispatchRetriesTransportError(t *testing.T) {
	var hits atomic.Int64
	srv0, rep0 := fakeReplica(t, "r0", okHandler(nil))
	_, rep1 := fakeReplica(t, "r1", okHandler(&hits))
	srv0.Close() // r0 is dead but still marked ready: transport error
	pool := &staticPool{reps: []ReplicaInfo{rep0, rep1}}
	d := newTestDispatcher(t, DispatcherConfig{Pool: pool, HedgeDelay: -1})

	// Find a body homed on the dead replica so the first attempt fails.
	body := `{"image":[0.5]}`
	for i := 0; ; i++ {
		b := `{"image":[0.` + strings.Repeat("5", i+1) + `]}`
		if Ready(pool)[Home(Key([]byte(b)), Ready(pool))].Name == "r0" {
			body = b
			break
		}
	}
	w := classify(t, d, body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via retry; body %s", w.Code, w.Body.String())
	}
	if hits.Load() != 1 {
		t.Fatalf("surviving replica hit %d times, want 1", hits.Load())
	}
	if d.Metrics().Retries.Value() == 0 {
		t.Fatalf("retry not counted")
	}
	if got := d.Metrics().ReplicaRequests.With("r0", "error").Value(); got == 0 {
		t.Fatalf("dead replica attempt not counted as error")
	}
}

func TestDispatchRetriesCorruptResponse(t *testing.T) {
	var corruptHits atomic.Int64
	_, repBad := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		corruptHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"class":1,"probs":[0.1,`) // truncated JSON
	})
	_, repGood := fakeReplica(t, "r1", okHandler(nil))
	pool := &staticPool{reps: []ReplicaInfo{repBad, repGood}}
	d := newTestDispatcher(t, DispatcherConfig{Pool: pool, HedgeDelay: -1})

	body := ""
	for i := 0; ; i++ {
		b := `{"image":[0.` + strings.Repeat("1", i+1) + `]}`
		if Ready(pool)[Home(Key([]byte(b)), Ready(pool))].Name == "r0" {
			body = b
			break
		}
	}
	w := classify(t, d, body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via retry; body %s", w.Code, w.Body.String())
	}
	if corruptHits.Load() == 0 {
		t.Fatalf("corrupt replica never hit — fixture body not homed there")
	}
	if got := d.Metrics().ReplicaRequests.With("r0", "corrupt").Value(); got == 0 {
		t.Fatalf("corrupt response not counted")
	}
}

func TestDispatchRejectsNaNProbs(t *testing.T) {
	_, rep := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// Valid JSON, invalid payload: "NaN" is not JSON, so a replica
		// emitting it produces a decode failure; null prob is the
		// in-grammar equivalent of a poisoned value.
		io.WriteString(w, `{"class":5,"probs":[0.1,0.2]}`)
	})
	d := newTestDispatcher(t, DispatcherConfig{
		Pool: &staticPool{reps: []ReplicaInfo{rep}}, MaxAttempts: 2, HedgeDelay: -1,
	})
	w := classify(t, d, `{"image":[0.5]}`, nil)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 after exhausting budget on corrupt responses", w.Code)
	}
	if got := d.Metrics().ReplicaRequests.With("r0", "corrupt").Value(); got != 2 {
		t.Fatalf("corrupt count %d, want 2", got)
	}
}

func TestDispatchHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	_, rep := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, goodBody)
	})
	clk := newManualClock()
	d := newTestDispatcher(t, DispatcherConfig{
		Pool:          &staticPool{reps: []ReplicaInfo{rep}},
		RetryAfterCap: 50 * time.Millisecond, // cap proves the header is read but bounded
		HedgeDelay:    -1,
		Clock:         clk,
	})
	done := classifyAsync(context.Background(), d, `{"image":[0.5]}`, nil)
	clk.BlockUntil(1) // the backoff
	if n := clk.Advance(50*time.Millisecond - 1); n != 0 {
		t.Fatal("backoff ended before RetryAfterCap")
	}
	if n := clk.Advance(1); n != 1 {
		t.Fatal("Retry-After not capped at RetryAfterCap")
	}
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 after backoff", w.Code)
	}
	if got := d.Metrics().ReplicaRequests.With("r0", "429").Value(); got != 1 {
		t.Fatalf("429 count %d, want 1", got)
	}
}

func TestDispatchForwardsDeterministic4xx(t *testing.T) {
	var hits atomic.Int64
	_, rep := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "image length 3, want 64", http.StatusBadRequest)
	})
	d := newTestDispatcher(t, DispatcherConfig{Pool: &staticPool{reps: []ReplicaInfo{rep}}})
	w := classify(t, d, `{"image":[1,2,3]}`, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want the replica's 400 forwarded", w.Code)
	}
	if hits.Load() != 1 {
		t.Fatalf("client error retried: %d attempts", hits.Load())
	}
}

// TestDispatchRefusesOversizedBody: the router bounds a classify body
// by the body_limit a real replica advertises on /readyz. A body past
// it gets 413 from the router itself — read at most one byte past the
// bound, never forwarded, and accounted like the router's own 400 (one
// SLO observation, not an error). A body within the bound still
// reaches the replica, which judges it.
func TestDispatchRefusesOversizedBody(t *testing.T) {
	net, err := capsnet.New(capsnet.TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	srv, err := serve.New(net, capsnet.ExactMath{}, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(context.Background()) })
	var hits atomic.Int64
	_, rep := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		srv.Handler().ServeHTTP(w, r)
	})
	rep.Load = srv.Load()
	limit := rep.Load.BodyLimit
	d := newTestDispatcher(t, DispatcherConfig{Pool: &staticPool{reps: []ReplicaInfo{rep}}})

	body := &countingReader{r: strings.NewReader(strings.Repeat(" ", 1<<20) + `{"image":[0.5]}`)}
	w := httptest.NewRecorder()
	d.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/classify", body))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 from the router", w.Code)
	}
	if body.n > limit+1 {
		t.Fatalf("router read %d bytes of the body, want at most %d", body.n, limit+1)
	}
	if hits.Load() != 0 {
		t.Fatalf("oversized body reached the replica %d times, want 0", hits.Load())
	}
	if _, total := d.SLO().Availability(time.Minute); total != 1 {
		t.Fatalf("SLO saw %d requests, want the 413 counted once", total)
	}
	if ratio, _ := d.SLO().Availability(time.Minute); ratio != 1 {
		t.Fatalf("SLO availability %g, want 1: a 413 is the client's error", ratio)
	}

	if w := classify(t, d, `{"image":[0.5]}`, nil); w.Code != http.StatusBadRequest || hits.Load() != 1 {
		t.Fatalf("body within the bound: status %d after %d replica hits, want the replica's 400 after 1", w.Code, hits.Load())
	}
}

// TestDispatchBoundsReplicaReply: the router reads a replica's reply
// through the reply_limit it advertises. A 1 MiB 200 reply — valid
// JSON, padded with whitespace, so only its length is wrong — is
// counted corrupt and retried on the other replica; with no limit
// advertised (0) the same reply is read whole and delivered.
func TestDispatchBoundsReplicaReply(t *testing.T) {
	huge := strings.Repeat(" ", 1<<20) + goodBody
	_, repHuge := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, huge)
	})
	_, repGood := fakeReplica(t, "r1", okHandler(nil))
	limit := wire.ClassifyReplyLimit(3, 16)
	repHuge.Load.ReplyLimit, repGood.Load.ReplyLimit = limit, limit
	pool := &staticPool{reps: []ReplicaInfo{repHuge, repGood}}
	d := newTestDispatcher(t, DispatcherConfig{Pool: pool, HedgeDelay: -1})

	body := ""
	for i := 0; ; i++ {
		b := `{"image":[0.` + strings.Repeat("3", i+1) + `]}`
		if Ready(pool)[Home(Key([]byte(b)), Ready(pool))].Name == "r0" {
			body = b
			break
		}
	}
	w := classify(t, d, body, nil)
	if w.Code != http.StatusOK || w.Body.String() != goodBody {
		t.Fatalf("status %d, body of %d bytes; want 200 with r1's reply", w.Code, w.Body.Len())
	}
	if got := d.Metrics().ReplicaRequests.With("r0", "corrupt").Value(); got != 1 {
		t.Fatalf("overlong reply counted corrupt %d times, want 1", got)
	}
	if d.Metrics().Retries.Value() == 0 {
		t.Fatalf("overlong reply not retried")
	}

	repHuge.Load.ReplyLimit = 0
	d = newTestDispatcher(t, DispatcherConfig{Pool: &staticPool{reps: []ReplicaInfo{repHuge}}, HedgeDelay: -1})
	if w := classify(t, d, body, nil); w.Code != http.StatusOK || w.Body.Len() != len(huge) {
		t.Fatalf("unbounded read: status %d, body of %d bytes; want 200 with all %d", w.Code, w.Body.Len(), len(huge))
	}
}

// countingReader counts the bytes a handler pulls from a request body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func TestDispatchHedgesStalledReplica(t *testing.T) {
	release := make(chan struct{})
	_, repSlow := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read starts and
		// r.Context() cancels if the router abandons the attempt.
		io.ReadAll(r.Body)
		select {
		case <-release: // stalled until test end
		case <-r.Context().Done(): // or until the router abandons us
		}
	})
	var fastHits atomic.Int64
	_, repFast := fakeReplica(t, "r1", okHandler(&fastHits))
	// Registered after the servers, so LIFO cleanup unblocks the stalled
	// handler before httptest.Server.Close waits on it.
	t.Cleanup(func() { close(release) })
	pool := &staticPool{reps: []ReplicaInfo{repSlow, repFast}}
	clk := newManualClock()
	d := newTestDispatcher(t, DispatcherConfig{
		Pool:       pool,
		HedgeDelay: 30 * time.Millisecond,
		Clock:      clk,
	})

	body := ""
	for i := 0; ; i++ {
		b := `{"image":[0.` + strings.Repeat("7", i+1) + `]}`
		if Ready(pool)[Home(Key([]byte(b)), Ready(pool))].Name == "r0" {
			body = b
			break
		}
	}
	done := classifyAsync(context.Background(), d, body, nil)
	clk.BlockUntil(1) // the hedge timer
	if n := clk.Advance(30*time.Millisecond - 1); n != 0 {
		t.Fatal("hedge launched before HedgeDelay")
	}
	clk.Advance(1)
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via hedge", w.Code)
	}
	if fastHits.Load() == 0 {
		t.Fatalf("hedge replica never hit")
	}
	if d.Metrics().Hedges.Value() != 1 {
		t.Fatalf("hedges = %d, want 1", d.Metrics().Hedges.Value())
	}
}

func TestDispatchNoReplicas(t *testing.T) {
	d := newTestDispatcher(t, DispatcherConfig{
		Pool: &staticPool{}, MaxAttempts: 2, HedgeDelay: -1,
	})
	w := classify(t, d, `{"image":[0.5]}`, nil)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 with empty pool", w.Code)
	}
}

func TestDispatchDrainAware(t *testing.T) {
	var drainHits, liveHits atomic.Int64
	_, repDrain := fakeReplica(t, "r0", okHandler(&drainHits))
	_, repLive := fakeReplica(t, "r1", okHandler(&liveHits))
	pool := &staticPool{reps: []ReplicaInfo{repDrain, repLive}}
	pool.setReady("r0", false) // draining: probe saw 503
	d := newTestDispatcher(t, DispatcherConfig{Pool: pool, HedgeDelay: -1})

	for i := 0; i < 20; i++ {
		w := classify(t, d, `{"image":[0.`+strings.Repeat("3", i+1)+`]}`, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("req %d: status %d", i, w.Code)
		}
	}
	if drainHits.Load() != 0 {
		t.Fatalf("draining replica received %d requests", drainHits.Load())
	}
	if liveHits.Load() != 20 {
		t.Fatalf("live replica received %d/20", liveHits.Load())
	}
}

func TestRouterMetricsText(t *testing.T) {
	_, rep := fakeReplica(t, "r0", okHandler(nil))
	pool := &staticPool{reps: []ReplicaInfo{rep}}
	d := newTestDispatcher(t, DispatcherConfig{Pool: pool})
	if w := classify(t, d, `{"image":[0.5]}`, nil); w.Code != http.StatusOK {
		t.Fatalf("classify: %d", w.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	d.Handler().ServeHTTP(w, req)
	text := w.Body.String()
	for _, want := range []string{
		`router_replica_requests_total{replica="r0",code="200"} 1`,
		`router_retries_total 0`,
		`router_hedges_total 0`,
		`router_replica_ready{replica="r0"} 1`,
		`router_request_latency_seconds_count 1`,
		`router_request_latency_seconds{quantile="0.99"} `,
		`router_request_latency_seconds_bucket{le="+Inf"} 1`,
		`router_request_latency_seconds_overflow_total 0`,
		`router_slo_requests{window="1m0s"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func TestRouterReadyzAndReplicas(t *testing.T) {
	_, rep := fakeReplica(t, "r0", okHandler(nil))
	pool := &staticPool{reps: []ReplicaInfo{rep}}
	d := newTestDispatcher(t, DispatcherConfig{Pool: pool})

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		d.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	if w := get("/readyz"); w.Code != http.StatusOK {
		t.Fatalf("/readyz with ready replica: %d", w.Code)
	}
	pool.setReady("r0", false)
	if w := get("/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with no ready replicas: %d", w.Code)
	}
	w := get("/v1/replicas")
	var reps []ReplicaInfo
	if err := json.Unmarshal(w.Body.Bytes(), &reps); err != nil || len(reps) != 1 {
		t.Fatalf("/v1/replicas: err=%v, body %s", err, w.Body.String())
	}
	pool.setReady("r0", true)
	if w := get("/v1/model"); w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"classes"`)) {
		t.Fatalf("/v1/model proxy: %d %s", w.Code, w.Body.String())
	}
}

// TestNewDispatcherRejectsBadObsConfig: the router refuses the same
// recorder settings a replica refuses, instead of silently clamping
// them.
func TestNewDispatcherRejectsBadObsConfig(t *testing.T) {
	pool := &staticPool{}
	for _, rc := range []obs.RequestsConfig{
		{TraceSample: 1.5},
		{TraceSample: -1},
		{FlightBuffer: -3},
		{SlowThreshold: -time.Nanosecond},
		{TraceBuffer: -5},
	} {
		if _, err := NewDispatcher(DispatcherConfig{Pool: pool, RequestsConfig: rc}); err == nil {
			t.Errorf("NewDispatcher accepted %+v", rc)
		}
	}
}
