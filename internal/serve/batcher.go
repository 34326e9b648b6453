package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pimcapsnet/internal/obs"
)

// Batcher errors surfaced to the HTTP layer.
var (
	// ErrQueueFull means the admission queue rejected the request;
	// the server maps it to 429 + Retry-After.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrClosed means the batcher is shutting down; mapped to 503.
	ErrClosed = errors.New("serve: server shutting down")
	// ErrBatchPanic means the inference call for this request's batch
	// panicked; the batch was isolated (the server keeps serving) and
	// its requests are failed with 500.
	ErrBatchPanic = errors.New("serve: inference panicked")
	// ErrBatchTimeout means the watchdog failed this request's batch
	// after Config.BatchDeadline, so a stalled forward pass cannot
	// wedge the queue; mapped to 500.
	ErrBatchTimeout = errors.New("serve: batch exceeded deadline")
	// ErrNonFinite means the model produced NaN/Inf for this sample
	// even after the exact-math routing fallback (see capsnet's
	// finite-value guard); mapped to 500 rather than emitting NaN
	// probabilities.
	ErrNonFinite = errors.New("serve: non-finite model output")
	// ErrBatchAborted means the forward pass was cooperatively aborted
	// mid-routing because every request in the batch had already
	// expired (see Batcher.CancelRequested and capsnet.CancelCheck).
	// The callers are long gone — each already received its own
	// context error — so this error is bookkeeping: the run function
	// returns it per sample, and the batcher counts the abort.
	ErrBatchAborted = errors.New("serve: batch aborted, all requests expired")
)

// Prediction is the per-request inference result.
type Prediction struct {
	// Class is the argmax class.
	Class int
	// Probs holds ‖v_j‖ per class — CapsNet's class probabilities.
	Probs []float32
	// Poses holds the final capsule pose vector per class
	// (Classes×DigitDim).
	Poses [][]float32
	// Err, when non-nil, fails this request alone (its batchmates
	// still succeed) — e.g. ErrNonFinite for a sample the routing
	// guard could not recover.
	Err error
}

// RunFunc executes one assembled micro-batch and returns one
// Prediction per image, in order. The batcher guarantees len(images)
// ≥ 1 and calls it from a single runner goroutine.
type RunFunc func(images [][]float32) []Prediction

// request is one admitted classify call waiting for its batch.
type request struct {
	ctx  context.Context
	img  []float32
	done chan outcome // buffered(1); runner never blocks on it

	// trace is the request's sampled span trace (nil for unsampled
	// requests — the common case).
	trace *obs.Trace
	// enqueued is when Submit admitted the request; collected is when
	// the dispatcher pulled it off the queue. Their difference is the
	// queue-wait stage; collected → batch launch is batch assembly.
	enqueued  time.Time
	collected time.Time
}

type outcome struct {
	pred  Prediction
	batch int // size of the micro-batch the request rode in
	err   error
}

// Batcher is the dynamic micro-batcher: admitted requests are collected
// into a batch that launches as soon as the runner is idle (after
// MaxDelay, when set, if the batch is not yet full), and the whole
// batch runs as one forward call so the routing-procedure work is
// shared across requests (the software analogue of the paper's
// batch-shared Alg. 1).
//
// Two goroutines implement the paper's two-stage host/HMC pipeline
// (§4), one batch in each stage: the dispatcher collects
// batch k+1 while the runner executes batch k, so collection overlaps
// inference exactly like the paper's host stage overlaps the HMC
// routing stage, and a request never waits on an idle runner.
type Batcher struct {
	cfg     Config
	run     RunFunc
	metrics *Metrics
	// routingIterations is reported to metrics per launched batch.
	routingIterations int

	q *queue
	// runCh hands a batch from the dispatcher to the runner. It is
	// unbuffered: a send completes only when the runner is idle.
	runCh chan []*request

	// cancelArmed flips true while the currently running batch should
	// abort (every rider's context expired); the network's Cancel hook
	// reads it between routing iterations via CancelRequested.
	cancelArmed atomic.Bool

	// brown, when non-nil, is the brownout controller; the runner
	// feeds it each launched batch's worst queue wait.
	brown *brownout

	// rec, when non-nil, is the forward-pass stage recorder shared
	// with the network; the runner attaches each batch's trace to it
	// before inference so stage spans land on the right timeline.
	rec *obs.StageRecorder

	mu sync.RWMutex
	//pimcaps:guardedby mu
	closed bool

	// inflight counts requests inside Submit — admitted and not yet
	// answered, or about to be admitted or refused; lastBatch remembers
	// the size of the most recently executed batch. Together with the
	// queue depth they form the /readyz load body the router tier's
	// least-loaded dispatch reads.
	inflight  atomic.Int64
	lastBatch atomic.Int64

	stop           chan struct{}
	dispatcherDone chan struct{}
	runnerDone     chan struct{}
}

// NewBatcher builds a batcher over cfg (already defaulted/validated by
// the caller) that executes batches with run. Call Start before
// Submit.
func NewBatcher(cfg Config, run RunFunc, m *Metrics, routingIterations int) *Batcher {
	return &Batcher{
		cfg:               cfg,
		run:               run,
		metrics:           m,
		routingIterations: routingIterations,
		q:                 newQueue(cfg.QueueSize),
		runCh:             make(chan []*request),
		stop:              make(chan struct{}),
		dispatcherDone:    make(chan struct{}),
		runnerDone:        make(chan struct{}),
	}
}

// Start launches the dispatcher and runner goroutines. Their timers —
// the dispatcher's fill timer, the runner's watchdog and abort timers —
// are made here, disarmed, once for the batcher's lifetime, and re-armed
// per batch with Reset.
func (b *Batcher) Start() {
	go b.dispatch(b.idleTimer())
	go b.runLoop(b.idleTimer(), b.idleTimer())
}

// idleTimer returns a disarmed timer on the batcher's clock.
func (b *Batcher) idleTimer() obs.Timer {
	t := b.cfg.Clock.NewTimer(time.Hour)
	t.Stop()
	return t
}

// QueueDepth is the current admission-queue depth.
func (b *Batcher) QueueDepth() int { return b.q.Len() }

// Inflight is the number of admitted requests whose callers are still
// waiting on an outcome (queued, under collection, or riding the
// in-flight batch).
func (b *Batcher) Inflight() int { return int(b.inflight.Load()) }

// LastBatchSize is the size of the most recently executed batch (0
// before the first batch runs). LastBatchSize/MaxBatch is the batcher
// occupancy: how full the micro-batches actually launch.
func (b *Batcher) LastBatchSize() int { return int(b.lastBatch.Load()) }

// CancelRequested reports whether the batch currently under execution
// should abort: every request riding it has expired, so finishing the
// forward pass is dead work. The server installs this as the network's
// capsnet.CancelCheck; the routing loop polls it between iterations.
// (A watchdog-abandoned forward pass keeps polling the same flag while
// later batches run — a later batch's abort can therefore also free an
// abandoned straggler, which only helps.)
func (b *Batcher) CancelRequested() bool { return b.cancelArmed.Load() }

// Submit admits one image and blocks until its batch has run or ctx
// expires. It returns the prediction and the size of the micro-batch
// the request shared. ErrQueueFull signals backpressure; ErrClosed
// signals shutdown.
func (b *Batcher) Submit(ctx context.Context, img []float32) (Prediction, int, error) {
	r := &request{
		ctx:      ctx,
		img:      img,
		done:     make(chan outcome, 1),
		trace:    obs.TraceFrom(ctx),
		enqueued: b.cfg.Clock.Now(),
	}
	// Counted before the push, so the gauge never reads below the queue
	// depth; a refused request is uncounted on the way out like any other.
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return Prediction{}, 0, ErrClosed
	}
	admitted := b.q.TryPush(r)
	b.mu.RUnlock()
	if !admitted {
		return Prediction{}, 0, ErrQueueFull
	}
	select {
	case out := <-r.done:
		return out.pred, out.batch, out.err
	case <-ctx.Done():
		// The request stays queued; the runner notices the expired
		// context and discards it into the buffered done channel.
		return Prediction{}, 0, ctx.Err()
	}
}

// dispatch collects requests into micro-batches. One batch at a time
// is under collection, and it launches when the runner can take it:
// runCh is unbuffered, so the send succeeds exactly when the runner is
// idle. The send is offered once the batch is full, or — with the
// runner idle — at once when MaxDelay is 0, else after fill fires
// MaxDelay past the batch's first request. While the runner is busy
// the batch keeps filling up to MaxBatch, so collection overlaps the
// previous batch's execution and no batch waits in a buffer.
func (b *Batcher) dispatch(fill obs.Timer) {
	defer close(b.dispatcherDone)
	defer fill.Stop()
	var batch []*request
	// filling is fill's channel while the timer is armed for this batch
	// and has not fired, nil otherwise.
	var filling <-chan time.Time
	collect := func(r *request) {
		r.collected = b.cfg.Clock.Now()
		if len(batch) == 0 && b.cfg.MaxDelay > 0 {
			fill.Reset(b.cfg.MaxDelay)
			filling = fill.C()
		}
		batch = append(batch, r)
	}
	for {
		// Queued requests join before the select, whose random choice
		// would otherwise launch a short batch while more wait in q.
		for len(batch) < b.cfg.MaxBatch {
			r, ok := b.q.TryPop()
			if !ok {
				break
			}
			collect(r)
		}
		var in <-chan *request
		if len(batch) < b.cfg.MaxBatch {
			in = b.q.C()
		}
		var out chan<- []*request
		if len(batch) == b.cfg.MaxBatch || (len(batch) > 0 && filling == nil) {
			out = b.runCh
		}
		select {
		case r := <-in:
			collect(r)
		case out <- batch:
			fill.Stop()
			batch, filling = nil, nil
		case <-filling:
			filling = nil
		case <-b.stop:
			b.drain(batch)
			return
		}
	}
}

// drain flushes the partial batch under collection plus everything
// still queued, then closes runCh so the runner exits after the last
// batch. Queued requests are batched normally so in-flight work
// completes with real results during graceful shutdown.
func (b *Batcher) drain(batch []*request) {
	for {
		for len(batch) < b.cfg.MaxBatch {
			r, ok := b.q.TryPop()
			if !ok {
				break
			}
			r.collected = b.cfg.Clock.Now()
			batch = append(batch, r)
		}
		if len(batch) == 0 {
			break
		}
		b.runCh <- batch
		batch = nil
	}
	close(b.runCh)
}

// runLoop executes assembled batches one at a time, with the watchdog
// and abort timers it owns.
func (b *Batcher) runLoop(watchdog, abort obs.Timer) {
	defer close(b.runnerDone)
	for batch := range b.runCh {
		b.runBatch(batch, watchdog, abort)
	}
}

// runResult carries one batch execution's outcome from the inference
// goroutine back to the runner.
type runResult struct {
	preds    []Prediction
	panicVal any
	panicked bool
}

// runBatch drops requests whose context already expired, executes the
// rest as one forward call, and completes every request's done
// channel.
//
// The forward call runs on a child goroutine so the runner can
// isolate two failure modes instead of letting them take the server
// down: a panic anywhere under RunFunc (including a chunk worker's,
// re-raised on the forward pass) fails only this batch's requests
// with ErrBatchPanic, and a stall beyond Config.BatchDeadline is failed by
// the watchdog with ErrBatchTimeout so the queue keeps draining. An
// abandoned (timed-out) inference goroutine parks its late result in
// the buffered channel and is garbage collected. Both timers are
// disarmed again when runBatch returns.
func (b *Batcher) runBatch(batch []*request, watchdog, abort obs.Timer) {
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			r.done <- outcome{err: err}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	b.lastBatch.Store(int64(len(live)))
	// launch closes the batch-assembly stage and opens the forward
	// stage: one stamp, so the pipeline stages partition each request's
	// time in the batcher exactly.
	launch := b.cfg.Clock.Now()
	var batchTrace *obs.Trace
	var worstWait time.Duration
	images := make([][]float32, len(live))
	for i, r := range live {
		images[i] = r.img
		if qw := r.collected.Sub(r.enqueued); qw > worstWait {
			worstWait = qw
		}
		if b.metrics != nil {
			b.metrics.Stages.With(StageQueueWait).Observe(r.collected.Sub(r.enqueued).Seconds())
			b.metrics.Stages.With(StageBatchAssembly).Observe(launch.Sub(r.collected).Seconds())
		}
		if r.trace != nil {
			r.trace.Add(StageQueueWait, -1, r.enqueued, r.collected)
			r.trace.Add(StageBatchAssembly, -1, r.collected, launch)
			if batchTrace == nil {
				// One transient trace collects the batch's forward-pass
				// stage spans; they are copied to every sampled rider
				// after the run.
				batchTrace = &obs.Trace{}
			}
		}
	}
	if b.rec != nil {
		// Attach (or detach, when no rider is sampled) before the
		// inference goroutine starts. BeginStage captures this pointer,
		// so a watchdog-abandoned forward pass keeps writing to its own
		// discarded batchTrace instead of racing the next batch's.
		b.rec.SetCurrent(batchTrace)
	}
	// Feed the brownout controller before the run so the level a batch
	// is served at reflects the pressure it arrived under, and snapshot
	// that level for the per-level request counters.
	level := 0
	if b.brown != nil {
		b.brown.observe(worstWait, launch)
		level = b.brown.Level()
	}
	// The cancel flag covers exactly one batch execution: re-arm
	// happens below if this batch's riders all expire mid-run.
	b.cancelArmed.Store(false)
	resCh := make(chan runResult, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				resCh <- runResult{panicked: true, panicVal: p}
			}
		}()
		if hook := b.cfg.PreRunHook; hook != nil {
			hook(images)
		}
		resCh <- runResult{preds: b.run(images)}
	}()
	watchdog.Reset(b.cfg.BatchDeadline)
	defer watchdog.Stop()
	defer abort.Stop()
	abortCh := armAbort(live, abort)
	for {
		select {
		case res := <-resCh:
			fwdEnd := b.cfg.Clock.Now()
			if res.panicked {
				if b.metrics != nil {
					b.metrics.PanicsRecovered.Inc()
				}
				err := fmt.Errorf("%w: %v", ErrBatchPanic, res.panicVal)
				for _, r := range live {
					r.done <- outcome{err: err}
				}
				return
			}
			if b.metrics != nil {
				if batchAborted(res.preds) {
					b.metrics.BatchesAborted.Inc()
				}
				b.metrics.Batches.Inc()
				b.metrics.BatchSize.Observe(float64(len(live)))
				b.metrics.RoutingIterations.Add(uint64(b.routingIterations))
				b.metrics.Stages.With(StageForward).Observe(fwdEnd.Sub(launch).Seconds())
				b.metrics.BrownoutRequests.With(strconv.Itoa(level)).Add(uint64(len(live)))
			}
			spans := batchTrace.Spans()
			for i, r := range live {
				r.trace.Add(StageForward, -1, launch, fwdEnd)
				r.trace.AddSpans(spans)
				r.done <- outcome{pred: res.preds[i], batch: len(live), err: res.preds[i].Err}
			}
			return
		case <-watchdog.C():
			if b.metrics != nil {
				b.metrics.WatchdogBatches.Inc()
			}
			err := fmt.Errorf("%w (%v)", ErrBatchTimeout, b.cfg.BatchDeadline)
			for _, r := range live {
				r.done <- outcome{err: err}
			}
			return
		case <-abortCh:
			// The latest known context deadline has passed. If every
			// rider is indeed gone, arm the cooperative cancel so the
			// routing loop stops between iterations; otherwise re-arm
			// for the new latest deadline (a rider without one keeps
			// the batch uncancellable — armAbort returned nil and this
			// case never fires).
			if allExpired(live) {
				b.cancelArmed.Store(true)
				abortCh = nil
			} else {
				abortCh = armAbort(live, abort)
			}
		}
	}
}

// armAbort arms abort to fire just after the latest context deadline
// across the batch's still-live requests — the earliest instant at
// which the whole batch could be expired — and returns its channel. It
// returns nil (never fires) when some request has no deadline at all.
// The millisecond of slack keeps the common case to a single firing:
// by then every ctx.Err() has actually flipped.
func armAbort(live []*request, abort obs.Timer) <-chan time.Time {
	var latest time.Time
	for _, r := range live {
		if r.ctx.Err() != nil {
			continue
		}
		d, ok := r.ctx.Deadline()
		if !ok {
			return nil
		}
		if d.After(latest) {
			latest = d
		}
	}
	if latest.IsZero() {
		// Everything expired between the live-filter and now; fire
		// immediately so the select arms the cancel.
		abort.Reset(0)
		return abort.C()
	}
	//lint:ignore pimcaps/timerleak context deadlines run on the runtime's clock; this is the one place one becomes a clock timer
	abort.Reset(time.Until(latest) + time.Millisecond)
	return abort.C()
}

// allExpired reports whether every request in the batch has an expired
// or cancelled context.
func allExpired(live []*request) bool {
	for _, r := range live {
		if r.ctx.Err() == nil {
			return false
		}
	}
	return true
}

// batchAborted reports whether the run function returned the
// cooperative-abort sentinel for this batch.
func batchAborted(preds []Prediction) bool {
	for i := range preds {
		if errors.Is(preds[i].Err, ErrBatchAborted) {
			return true
		}
	}
	return false
}

// Close stops admission, drains queued and in-flight batches, and
// waits for both goroutines, bounded by ctx. Safe to call more than
// once.
func (b *Batcher) Close(ctx context.Context) error {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if !already {
		close(b.stop)
	}
	select {
	case <-b.dispatcherDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-b.runnerDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}
