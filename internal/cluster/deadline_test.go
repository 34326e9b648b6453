package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/wire"
)

// newManualClock is the DispatcherConfig.Clock the deadline tests pass,
// so deadline arithmetic and backoff waits run without real waits.
func newManualClock() *obs.ManualClock { return obs.NewManualClock(time.Unix(1_700_000_000, 0)) }

// classifyAsync serves one classify request under ctx on its own
// goroutine, for tests that drive the dispatcher's clock while the
// request waits on it.
func classifyAsync(ctx context.Context, d *Dispatcher, body string, hdr map[string]string) <-chan *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", strings.NewReader(body)).WithContext(ctx)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		d.Handler().ServeHTTP(w, req)
		done <- w
	}()
	return done
}

// TestDispatchForwardsDeadlineHeader: the client's absolute deadline
// header reaches the replica verbatim on every attempt.
func TestDispatchForwardsDeadlineHeader(t *testing.T) {
	var seen atomic.Value
	_, rep := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get(wire.DeadlineHeader))
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, goodBody)
	})
	d := newTestDispatcher(t, DispatcherConfig{Pool: &staticPool{reps: []ReplicaInfo{rep}}})

	dl := time.Now().Add(time.Minute)
	w := classify(t, d, `{"image":[0.5]}`, map[string]string{wire.DeadlineHeader: wire.FormatDeadline(dl)})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	if got := seen.Load(); got != wire.FormatDeadline(dl) {
		t.Fatalf("replica saw deadline header %v, want %q", got, wire.FormatDeadline(dl))
	}
}

// TestDispatchDefaultBudgetStampsDeadline: a headerless request gets
// now+DefaultBudget as its deadline, visible to the replica.
func TestDispatchDefaultBudgetStampsDeadline(t *testing.T) {
	var seen atomic.Value
	_, rep := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get(wire.DeadlineHeader))
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, goodBody)
	})
	clk := newManualClock()
	d := newTestDispatcher(t, DispatcherConfig{
		Pool:          &staticPool{reps: []ReplicaInfo{rep}},
		DefaultBudget: 10 * time.Second,
		Clock:         clk,
	})

	w := classify(t, d, `{"image":[0.5]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	want := wire.FormatDeadline(clk.Now().Add(10 * time.Second))
	if got := seen.Load(); got != want {
		t.Fatalf("replica saw deadline header %v, want %q (now+DefaultBudget)", got, want)
	}
}

// TestDispatchInvalidDeadlineRejected: a malformed deadline header is a
// client error, not a routed request.
func TestDispatchInvalidDeadlineRejected(t *testing.T) {
	var hits atomic.Int64
	_, rep := fakeReplica(t, "r0", okHandler(&hits))
	d := newTestDispatcher(t, DispatcherConfig{Pool: &staticPool{reps: []ReplicaInfo{rep}}})

	w := classify(t, d, `{"image":[0.5]}`, map[string]string{wire.DeadlineHeader: "soon"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if hits.Load() != 0 {
		t.Fatalf("replica hit %d times for an invalid deadline, want 0", hits.Load())
	}
}

// TestDispatchNoAttemptAfterDeadline is the core no-dead-work
// guarantee: once the (fake) clock passes the deadline, no retry fires
// — the first failing attempt is the only replica contact, the retry
// counter stays at zero, and the client gets 504 with the exhaustion
// metric incremented.
func TestDispatchNoAttemptAfterDeadline(t *testing.T) {
	clk := newManualClock()
	var hits atomic.Int64
	_, rep := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		// The attempt consumes the whole budget: the next loop
		// iteration's deadline check must stop the request.
		clk.Advance(2 * time.Second)
		w.WriteHeader(http.StatusInternalServerError)
	})
	d := newTestDispatcher(t, DispatcherConfig{
		Pool:        &staticPool{reps: []ReplicaInfo{rep}},
		MaxAttempts: 4,
		HedgeDelay:  -1,
		Clock:       clk,
	})

	dl := clk.Now().Add(time.Second)
	w := classify(t, d, `{"image":[0.5]}`, map[string]string{wire.DeadlineHeader: wire.FormatDeadline(dl)})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body.String())
	}
	if hits.Load() != 1 {
		t.Fatalf("replica hit %d times, want 1 (no retries past the deadline)", hits.Load())
	}
	if got := d.Metrics().Retries.Value(); got != 0 {
		t.Fatalf("router_retries_total = %d, want 0", got)
	}
	if got := d.Metrics().DeadlineExhausted.Value(); got != 1 {
		t.Fatalf("router_deadline_exhausted_total = %d, want 1", got)
	}
}

// TestDispatchExpiredOnArrival: a request whose deadline already
// passed is answered 504 without any replica contact.
func TestDispatchExpiredOnArrival(t *testing.T) {
	clk := newManualClock()
	var hits atomic.Int64
	_, rep := fakeReplica(t, "r0", okHandler(&hits))
	d := newTestDispatcher(t, DispatcherConfig{
		Pool:  &staticPool{reps: []ReplicaInfo{rep}},
		Clock: clk,
	})

	dl := clk.Now().Add(-time.Second)
	w := classify(t, d, `{"image":[0.5]}`, map[string]string{wire.DeadlineHeader: wire.FormatDeadline(dl)})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", w.Code)
	}
	if hits.Load() != 0 {
		t.Fatalf("replica hit %d times for a dead-on-arrival request, want 0", hits.Load())
	}
	if got := d.Metrics().DeadlineExhausted.Value(); got != 1 {
		t.Fatalf("router_deadline_exhausted_total = %d, want 1", got)
	}
}

// TestDispatchSkipsHedgeNearDeadline: with less runway than HedgeDelay
// + ExpectedServiceTime remaining, the hedge is vetoed (counted in
// router_hedges_skipped_total) and only one replica is contacted.
func TestDispatchSkipsHedgeNearDeadline(t *testing.T) {
	clk := newManualClock()
	var hits0, hits1 atomic.Int64
	_, rep0 := fakeReplica(t, "r0", okHandler(&hits0))
	_, rep1 := fakeReplica(t, "r1", okHandler(&hits1))
	d := newTestDispatcher(t, DispatcherConfig{
		Pool:                &staticPool{reps: []ReplicaInfo{rep0, rep1}},
		HedgeDelay:          10 * time.Millisecond,
		MaxHedges:           1,
		ExpectedServiceTime: 100 * time.Millisecond,
		Clock:               clk,
	})

	// 50ms of budget < 10ms hedge delay + 100ms expected service.
	dl := clk.Now().Add(50 * time.Millisecond)
	w := classify(t, d, `{"image":[0.5]}`, map[string]string{wire.DeadlineHeader: wire.FormatDeadline(dl)})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	if got := d.Metrics().HedgesSkipped.Value(); got != 1 {
		t.Fatalf("router_hedges_skipped_total = %d, want 1", got)
	}
	if got := d.Metrics().Hedges.Value(); got != 0 {
		t.Fatalf("router_hedges_total = %d, want 0", got)
	}
	if total := hits0.Load() + hits1.Load(); total != 1 {
		t.Fatalf("replicas hit %d times, want exactly 1 (no hedge)", total)
	}
}

// TestDispatchCapsRetryAfterByDeadline: a replica 429's Retry-After
// backoff waits only the remaining budget, then the request ends 504
// instead of waiting past its own deadline.
func TestDispatchCapsRetryAfterByDeadline(t *testing.T) {
	clk := newManualClock()
	var hits atomic.Int64
	_, rep := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	d := newTestDispatcher(t, DispatcherConfig{
		Pool:          &staticPool{reps: []ReplicaInfo{rep}},
		MaxAttempts:   4,
		HedgeDelay:    -1,
		RetryAfterCap: 10 * time.Second, // deliberately above the budget
		Clock:         clk,
	})

	dl := clk.Now().Add(500 * time.Millisecond)
	done := classifyAsync(context.Background(), d, `{"image":[0.5]}`, map[string]string{wire.DeadlineHeader: wire.FormatDeadline(dl)})
	clk.BlockUntil(1) // the backoff
	if n := clk.Advance(500 * time.Millisecond); n != 1 {
		t.Fatalf("the backoff did not end at the 500ms remaining budget (%d timers fired)", n)
	}
	w := <-done
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body.String())
	}
	if hits.Load() != 1 {
		t.Fatalf("replica hit %d times, want 1 (one wait, then the deadline check ends the request)", hits.Load())
	}
}

// TestDispatchBackoffEndsWhenClientLeaves: a disconnected client's
// handler leaves its Retry-After wait at once instead of holding its
// goroutine for the full wait — the clock never moves.
func TestDispatchBackoffEndsWhenClientLeaves(t *testing.T) {
	clk := newManualClock()
	_, rep := fakeReplica(t, "r0", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	d := newTestDispatcher(t, DispatcherConfig{
		Pool:       &staticPool{reps: []ReplicaInfo{rep}},
		HedgeDelay: -1,
		Clock:      clk,
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := classifyAsync(ctx, d, `{"image":[0.5]}`, nil)
	clk.BlockUntil(1) // the backoff
	cancel()
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	select {
	case <-done:
	case <-timeout.C:
		t.Fatal("handler still waiting out its backoff after the client left")
	}
	if got := d.Metrics().Retries.Value(); got != 0 {
		t.Fatalf("router_retries_total = %d, want 0 (no attempt after the client left)", got)
	}
}
