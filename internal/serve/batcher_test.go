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

// gatedRun returns a RunFunc for one batch that closes entered and then
// blocks until release is closed, echoing its images.
func gatedRun() (run RunFunc, entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	return func(images [][]float32) []Prediction {
		close(entered)
		<-release
		return echoRun(images)
	}, entered, release
}

// waitDepth spins (no sleeps) until the admission queue holds want
// requests; Submit pushes synchronously before blocking, so this
// settles deterministically.
func waitDepth(t *testing.T, b *Batcher, want int) {
	t.Helper()
	for i := 0; b.QueueDepth() < want; i++ {
		if i > 1e8 {
			t.Fatalf("queue depth stuck at %d, want %d", b.QueueDepth(), want)
		}
		runtime.Gosched()
	}
}

// TestFullBatchFiresImmediately: MaxBatch requests launch without the
// MaxDelay timer ever firing.
func TestFullBatchFiresImmediately(t *testing.T) {
	cfg, _ := onManualClock(Config{MaxBatch: 4, QueueSize: 16})
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
	cfg, _ := onManualClock(Config{MaxBatch: 8, QueueSize: 16}) // only shutdown can launch the batch
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
