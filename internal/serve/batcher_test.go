package serve

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"pimcapsnet/internal/obs"
)

// echoRun returns a Prediction whose Class echoes the first pixel, so
// tests can verify request↔result pairing inside a batch.
func echoRun(images [][]float32) []Prediction {
	preds := make([]Prediction, len(images))
	for i, img := range images {
		preds[i] = Prediction{Class: int(img[0]), Probs: []float32{img[0]}}
	}
	return preds
}

// onManualClock defaults cfg on a ManualClock only the test advances:
// no timer fires unless the test says so, and a test that never
// advances it proves its code path needs no timer.
func onManualClock(cfg Config) (Config, *obs.ManualClock) {
	clk := obs.NewManualClock(time.Unix(1_700_000_000, 0))
	cfg.Clock = clk
	return cfg.withDefaults(), clk
}

// gatedRun returns a RunFunc whose first batch closes entered and then
// blocks until release is closed; every batch echoes its images.
func gatedRun() (run RunFunc, entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	return func(images [][]float32) []Prediction {
		once.Do(func() {
			close(entered)
			<-release
		})
		return echoRun(images)
	}, entered, release
}

// waitDepth spins (no sleeps) until the admission queue holds exactly
// want requests; Submit pushes synchronously before blocking, so this
// settles deterministically.
func waitDepth(t *testing.T, b *Batcher, want int) {
	t.Helper()
	for i := 0; b.QueueDepth() != want; i++ {
		if i > 1e8 {
			t.Fatalf("queue depth stuck at %d, want %d", b.QueueDepth(), want)
		}
		runtime.Gosched()
	}
}

// enqueue admits a request for img straight onto b's queue, as Submit
// does, and returns it without waiting for its outcome: once enqueue
// returns the dispatcher can see the request, which a Submit goroutine
// does not promise.
func enqueue(t *testing.T, b *Batcher, img float32) *request {
	t.Helper()
	r := &request{
		ctx:      context.Background(),
		img:      []float32{img},
		done:     make(chan outcome, 1),
		enqueued: b.cfg.Clock.Now(),
	}
	if !b.q.TryPush(r) {
		t.Fatalf("request %g refused with %d queued", img, b.QueueDepth())
	}
	return r
}

// TestBatchLaunchesWhenIdle: under the default Config a lone request
// launches the moment it is collected, on a clock that never moves, so
// its batch_assembly stage is exactly zero.
func TestBatchLaunchesWhenIdle(t *testing.T) {
	cfg, _ := onManualClock(Config{})
	m := NewMetrics()
	b := NewBatcher(cfg, echoRun, m, 1)
	b.Start()
	defer b.Close(context.Background())

	tr := &obs.Trace{ID: "idle"}
	pred, batch, err := b.Submit(obs.WithTrace(context.Background(), tr.ID, tr), []float32{5})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Class != 5 || batch != 1 {
		t.Fatalf("got class %d batch %d, want class 5 batch 1", pred.Class, batch)
	}
	assembled := false
	for _, sp := range tr.Spans() {
		if sp.Name == StageBatchAssembly {
			assembled = true
			if d := sp.End.Sub(sp.Start); d != 0 {
				t.Fatalf("batch_assembly span %v, want 0", d)
			}
		}
	}
	if !assembled {
		t.Fatal("no batch_assembly span recorded")
	}
	if h := m.Stages.With(StageBatchAssembly); h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("batch_assembly observed %d times summing %gs, want once at 0", h.Count(), h.Sum())
	}
}

// TestBatchTopsUpFromQueue: requests already queued when the runner
// can take a batch all ride it, instead of select's random choice
// launching the first one alone.
func TestBatchTopsUpFromQueue(t *testing.T) {
	cfg, _ := onManualClock(Config{MaxBatch: 8, QueueSize: 16})
	run, entered, release := gatedRun()
	b := NewBatcher(cfg, run, nil, 1)
	reqs := make([]*request, 6)
	for i := range reqs {
		reqs[i] = enqueue(t, b, float32(i))
	}
	b.Start()
	defer b.Close(context.Background())
	<-entered
	close(release)
	for i, r := range reqs {
		if out := <-r.done; out.err != nil || out.pred.Class != i || out.batch != 6 {
			t.Fatalf("request %d: class %d batch %d err %v, want class %d batch 6", i, out.pred.Class, out.batch, out.err, i)
		}
	}
}

// TestBatchKeepsFillingWhileRunnerBusy: a batch whose fill timer fires
// while the runner is busy keeps collecting instead of closing, so the
// cohort that arrived during batch 1 rides batch 2 whole.
func TestBatchKeepsFillingWhileRunnerBusy(t *testing.T) {
	cfg, clk := onManualClock(Config{MaxBatch: 4, MaxDelay: time.Millisecond, QueueSize: 16})
	run, entered, release := gatedRun()
	b := NewBatcher(cfg, run, nil, 1)
	b.Start()
	defer b.Close(context.Background())

	first := enqueue(t, b, 0)
	clk.BlockUntil(1) // the fill timer
	clk.Advance(cfg.MaxDelay)
	<-entered // batch 1 runs, and holds the runner

	cohort := []*request{enqueue(t, b, 1)}
	clk.BlockUntil(2) // the watchdog, and batch 2's fill timer
	if n := clk.Advance(cfg.MaxDelay); n != 1 {
		t.Fatalf("advancing MaxDelay fired %d timers, want batch 2's fill timer", n)
	}
	for i := 2; i <= 4; i++ {
		cohort = append(cohort, enqueue(t, b, float32(i)))
	}
	waitDepth(t, b, 0) // all collected: the batch is full
	close(release)

	if out := <-first.done; out.err != nil || out.batch != 1 {
		t.Fatalf("batch 1: batch %d err %v, want 1", out.batch, out.err)
	}
	for i, r := range cohort {
		if out := <-r.done; out.err != nil || out.pred.Class != i+1 || out.batch != 4 {
			t.Fatalf("request %d: class %d batch %d err %v, want class %d batch 4", i+1, out.pred.Class, out.batch, out.err, i+1)
		}
	}
}

// TestBatchAdmissionBound: at most the running batch + MaxBatch under
// collection + QueueSize requests are admitted; the next is refused.
func TestBatchAdmissionBound(t *testing.T) {
	cfg, _ := onManualClock(Config{MaxBatch: 2, QueueSize: 2})
	run, entered, release := gatedRun()
	b := NewBatcher(cfg, run, nil, 1)
	reqs := []*request{enqueue(t, b, 0), enqueue(t, b, 1)}
	b.Start()
	defer b.Close(context.Background())
	<-entered // requests 0 and 1 run

	reqs = append(reqs, enqueue(t, b, 2), enqueue(t, b, 3))
	waitDepth(t, b, 0) // 2 and 3 collected: the batch is full
	reqs = append(reqs, enqueue(t, b, 4), enqueue(t, b, 5))

	// A cancelled context returns at once if it is admitted after all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := b.Submit(ctx, []float32{6})
	close(release)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("7th submit returned %v, want ErrQueueFull", err)
	}
	for i, r := range reqs {
		if out := <-r.done; out.err != nil || out.pred.Class != i {
			t.Fatalf("request %d: class %d err %v", i, out.pred.Class, out.err)
		}
	}
}

// TestFullBatchFiresImmediately: MaxBatch requests launch without the
// MaxDelay timer ever firing.
func TestFullBatchFiresImmediately(t *testing.T) {
	cfg, _ := onManualClock(Config{MaxBatch: 4, MaxDelay: time.Hour, QueueSize: 16})
	b := NewBatcher(cfg, echoRun, nil, 1)
	b.Start()
	defer b.Close(context.Background())

	var wg sync.WaitGroup
	results := make([]outcome, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pred, batch, err := b.Submit(context.Background(), []float32{float32(i)})
			results[i] = outcome{pred: pred, batch: batch, err: err}
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		if res.pred.Class != i {
			t.Errorf("request %d routed to result %d", i, res.pred.Class)
		}
		if res.batch != 4 {
			t.Errorf("request %d rode batch of %d, want 4", i, res.batch)
		}
	}
}

// TestLoneRequestFiresAfterMaxDelay: a partial batch launches when the
// fill timer fires, MaxDelay after collection and not before, with no
// real sleeping. The fill timer and the stage stamps share one clock,
// so the request's batch_assembly stage is exactly MaxDelay.
func TestLoneRequestFiresAfterMaxDelay(t *testing.T) {
	cfg, clk := onManualClock(Config{MaxBatch: 8, MaxDelay: 3 * time.Millisecond, QueueSize: 16})
	m := NewMetrics()
	b := NewBatcher(cfg, echoRun, m, 1)
	b.Start()
	defer b.Close(context.Background())

	tr := &obs.Trace{ID: "lone"}
	done := make(chan outcome, 1)
	go func() {
		pred, batch, err := b.Submit(obs.WithTrace(context.Background(), tr.ID, tr), []float32{7})
		done <- outcome{pred: pred, batch: batch, err: err}
	}()

	// The dispatcher arms the fill timer only after collecting the
	// first request of the batch.
	clk.BlockUntil(1)
	if n := clk.Advance(cfg.MaxDelay - 1); n != 0 {
		t.Fatalf("%d timers fired before MaxDelay", n)
	}
	select {
	case res := <-done:
		t.Fatalf("batch launched before the fill timer fired: %+v", res)
	default:
	}
	if n := clk.Advance(1); n != 1 {
		t.Fatalf("the fill timer did not fire at MaxDelay (%d fired)", n)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.pred.Class != 7 || res.batch != 1 {
		t.Fatalf("got class %d batch %d, want class 7 batch 1", res.pred.Class, res.batch)
	}
	for _, sp := range tr.Spans() {
		if sp.Name == StageBatchAssembly && sp.End.Sub(sp.Start) != cfg.MaxDelay {
			t.Fatalf("batch_assembly span %v, want MaxDelay %v", sp.End.Sub(sp.Start), cfg.MaxDelay)
		}
	}
	h := m.Stages.With(StageBatchAssembly)
	if got := time.Duration(math.Round(h.Sum()*1e6)) * time.Microsecond; h.Count() != 1 || got != cfg.MaxDelay {
		t.Fatalf("batch_assembly observed %d times summing %v, want once at MaxDelay %v", h.Count(), got, cfg.MaxDelay)
	}
}

// TestWatchdogFailsStalledBatch: a forward pass that never returns is
// failed with ErrBatchTimeout exactly BatchDeadline after launch, on the
// batcher's clock, with no wall-clock wait.
func TestWatchdogFailsStalledBatch(t *testing.T) {
	cfg, clk := onManualClock(Config{MaxBatch: 1, QueueSize: 4, BatchDeadline: time.Second})
	m := NewMetrics()
	run, entered, release := gatedRun()
	b := NewBatcher(cfg, run, m, 1)
	b.Start()
	defer b.Close(context.Background())
	defer close(release) // frees the abandoned forward pass

	errCh := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(context.Background(), []float32{1})
		errCh <- err
	}()
	<-entered
	clk.BlockUntil(1) // the watchdog
	if n := clk.Advance(cfg.BatchDeadline - 1); n != 0 {
		t.Fatalf("%d timers fired before BatchDeadline", n)
	}
	clk.Advance(1)
	if err := <-errCh; !errors.Is(err, ErrBatchTimeout) {
		t.Fatalf("stalled batch returned %v, want ErrBatchTimeout", err)
	}
	if got := m.WatchdogBatches.Value(); got != 1 {
		t.Fatalf("capsnet_watchdog_failed_batches_total = %d, want 1", got)
	}
}

// TestQueueOverflowRejects: with the dispatcher not yet running, the
// QueueSize+1-th submit is rejected with ErrQueueFull (the server maps
// it to 429); starting the batcher then completes the queued ones.
func TestQueueOverflowRejects(t *testing.T) {
	cfg, _ := onManualClock(Config{MaxBatch: 2, QueueSize: 2})
	b := NewBatcher(cfg, echoRun, nil, 1)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = b.Submit(context.Background(), []float32{float32(i)})
		}(i)
	}
	waitDepth(t, b, 2)
	if _, _, err := b.Submit(context.Background(), []float32{9}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit returned %v, want ErrQueueFull", err)
	}
	b.Start()
	defer b.Close(context.Background())
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("queued request %d failed: %v", i, err)
		}
	}
}

// TestCloseDrainsInFlight: requests admitted before shutdown complete
// with real results, and submits after shutdown are rejected.
func TestCloseDrainsInFlight(t *testing.T) {
	// The fill timer never fires on the manual clock, so only shutdown
	// can launch the partial batch.
	cfg, _ := onManualClock(Config{MaxBatch: 8, MaxDelay: time.Second, QueueSize: 16})
	b := NewBatcher(cfg, echoRun, nil, 1)

	var wg sync.WaitGroup
	results := make([]outcome, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pred, batch, err := b.Submit(context.Background(), []float32{float32(i)})
			results[i] = outcome{pred: pred, batch: batch, err: err}
		}(i)
	}
	// Nothing consumes before Start, so all three are deterministically
	// admitted once the depth reaches 3.
	waitDepth(t, b, 3)
	b.Start()
	if err := b.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	for i, res := range results {
		if res.err != nil {
			t.Fatalf("in-flight request %d dropped at shutdown: %v", i, res.err)
		}
		if res.pred.Class != i {
			t.Errorf("request %d routed to result %d", i, res.pred.Class)
		}
	}
	if _, _, err := b.Submit(context.Background(), []float32{0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown submit returned %v, want ErrClosed", err)
	}
}

// TestExpiredRequestSkipped: a request whose context dies while queued
// is dropped by the runner without reaching RunFunc.
func TestExpiredRequestSkipped(t *testing.T) {
	cfg, _ := onManualClock(Config{MaxBatch: 1, QueueSize: 4})
	ran := 0
	b := NewBatcher(cfg, func(images [][]float32) []Prediction {
		ran += len(images)
		return echoRun(images)
	}, nil, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the batch can run
	errCh := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(ctx, []float32{1})
		errCh <- err
	}()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("expired submit returned %v, want context.Canceled", err)
	}
	b.Start()
	if err := b.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if ran != 0 {
		t.Fatalf("RunFunc saw %d expired requests, want 0", ran)
	}
}
