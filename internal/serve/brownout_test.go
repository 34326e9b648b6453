package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"pimcapsnet/internal/capsnet"
)

// bcfg is the brownout config used across the state-machine tests:
// engage at ≥ 20ms queue wait, recover at ≤ 2ms, one step per 100ms of
// sustained signal.
func bcfg(allowApprox bool) BrownoutConfig {
	return BrownoutConfig{
		Enabled:          true,
		EngageThreshold:  20 * time.Millisecond,
		RecoverThreshold: 2 * time.Millisecond,
		Hold:             100 * time.Millisecond,
		AllowApprox:      allowApprox,
	}.withDefaults()
}

// TestBrownoutStateMachine drives observe with explicit timestamps and
// checks the level after each observation — engagement needs Hold of
// sustained pressure, recovery mirrors it, and the hysteresis band
// resets both windows.
func TestBrownoutStateMachine(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	const (
		pressure = 30 * time.Millisecond // ≥ Engage
		calm     = 1 * time.Millisecond  // ≤ Recover
		band     = 10 * time.Millisecond // between the thresholds
	)
	steps := []struct {
		name  string
		wait  time.Duration
		nowMS int
		want  int
	}{
		{"first pressure opens the window", pressure, 0, 0},
		{"pressure before Hold elapses", pressure, 50, 0},
		{"Hold of pressure steps up", pressure, 100, 1},
		{"step resets the window", pressure, 150, 1},
		{"second Hold steps again", pressure, 250, 2},
		{"third Hold reaches max level", pressure, 400, 3},
		{"at max level pressure is absorbed", pressure, 550, 3},
		{"band resets the pressure window", band, 600, 3},
		{"calm opens the recovery window", calm, 650, 3},
		{"calm before Hold elapses", calm, 700, 3},
		{"Hold of calm steps down", calm, 750, 2},
		{"band also resets the calm window", band, 800, 2},
		{"calm restarts from scratch", calm, 810, 2},
		{"pre-band window does not carry over", calm, 870, 2},
		{"fresh Hold of calm steps down", calm, 910, 1},
		{"one more Hold fully recovers", calm, 1010, 0},
		{"at level 0 calm is absorbed", calm, 1150, 0},
	}
	// 3 configured iterations → 2 shedding levels, +1 approx level = max 3.
	b := newBrownout(bcfg(true), 3)
	if got := b.levels(); got != 4 {
		t.Fatalf("levels() = %d, want 4 (levels 0..3)", got)
	}
	for _, s := range steps {
		b.observe(s.wait, at(s.nowMS))
		if got := b.Level(); got != s.want {
			t.Fatalf("%s (t=%dms): level %d, want %d", s.name, s.nowMS, got, s.want)
		}
	}
}

// TestBrownoutIterationCapAndApprox checks the level→fidelity mapping:
// each shedding level removes one routing iteration, never below 1, and
// only the final level (with AllowApprox) flips the approximate-math
// path.
func TestBrownoutIterationCapAndApprox(t *testing.T) {
	b := newBrownout(bcfg(true), 3)
	cases := []struct {
		level      int
		wantIters  int
		wantApprox bool
	}{
		{0, 3, false},
		{1, 2, false},
		{2, 1, false},
		{3, 1, true}, // approx level: iterations stay floored at 1
	}
	for _, c := range cases {
		b.level.Store(int64(c.level))
		if got := b.iterationCap(); got != c.wantIters {
			t.Errorf("level %d: iterationCap %d, want %d", c.level, got, c.wantIters)
		}
		if got := b.approxActive(); got != c.wantApprox {
			t.Errorf("level %d: approxActive %v, want %v", c.level, got, c.wantApprox)
		}
	}

	// Without AllowApprox the ladder stops at iteration shedding.
	b = newBrownout(bcfg(false), 3)
	if got := b.levels(); got != 3 {
		t.Fatalf("no-approx levels() = %d, want 3", got)
	}
	b.level.Store(int64(b.maxLevel))
	if b.approxActive() {
		t.Fatal("approxActive true without AllowApprox")
	}
	if got := b.iterationCap(); got != 1 {
		t.Fatalf("max no-approx level: iterationCap %d, want 1", got)
	}

	// A single-iteration network has nothing to shed: only the approx
	// level exists, and the cap never goes below 1.
	b = newBrownout(bcfg(true), 1)
	if got := b.levels(); got != 2 {
		t.Fatalf("1-iteration levels() = %d, want 2", got)
	}
	b.level.Store(int64(b.maxLevel))
	if got := b.iterationCap(); got != 1 {
		t.Fatalf("1-iteration network: iterationCap %d, want 1", got)
	}
}

// TestBrownoutConfigValidate covers the validation boundaries.
func TestBrownoutConfigValidate(t *testing.T) {
	if err := (BrownoutConfig{}).validate(); err != nil {
		t.Fatalf("disabled zero config must validate, got %v", err)
	}
	if err := bcfg(false).validate(); err != nil {
		t.Fatalf("defaulted config must validate, got %v", err)
	}
	bad := bcfg(false)
	bad.RecoverThreshold = bad.EngageThreshold
	if err := bad.validate(); err == nil {
		t.Fatal("recover == engage must fail validation (no hysteresis band)")
	}
	bad = bcfg(false)
	bad.Hold = -time.Second
	if err := bad.validate(); err == nil {
		t.Fatal("negative Hold must fail validation")
	}
}

// TestBatchAbortWhenAllExpired exercises the cooperative-cancel path
// end to end at the batcher layer on a ManualClock: the abort timer
// fires while a rider is still live (re-arm, no cancel), then fires
// again after every rider expired (cancel armed, the run function
// observes it, the abort is counted). The riders' deadlines are
// context deadlines on the runtime's clock, so advancing the manual
// clock past one fires the timer "early" without expiring anyone.
func TestBatchAbortWhenAllExpired(t *testing.T) {
	cfg, clk := onManualClock(Config{MaxBatch: 2, QueueSize: 4, BatchDeadline: 1000 * time.Hour})
	m := NewMetrics()
	runEntered := make(chan struct{})
	var b *Batcher
	run := func(images [][]float32) []Prediction {
		close(runEntered)
		// Poll the cancel flag exactly like capsnet's routing loop does
		// between iterations.
		for !b.CancelRequested() {
			runtime.Gosched()
		}
		preds := make([]Prediction, len(images))
		for i := range preds {
			preds[i] = Prediction{Err: ErrBatchAborted}
		}
		return preds
	}
	b = NewBatcher(cfg, run, m, 3)

	// Two riders with deadlines far in the future (so armAbort arms a
	// timer) that the test expires by cancelation. Both queue before
	// Start, so they launch together as one batch.
	ctx1, cancel1 := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel1()
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel2()
	errs := make(chan error, 2)
	go func() {
		_, _, err := b.Submit(ctx1, []float32{1})
		errs <- err
	}()
	go func() {
		_, _, err := b.Submit(ctx2, []float32{2})
		errs <- err
	}()
	waitDepth(t, b, 2)
	b.Start()
	defer b.Close(context.Background())

	<-runEntered      // batch launched; run is blocked on the cancel flag
	clk.BlockUntil(2) // the watchdog, and the abort timer ~1h out

	// Premature firing: riders still live → no cancel, timer re-armed.
	if n := clk.Advance(2 * time.Hour); n != 1 {
		t.Fatalf("advancing past the abort deadline fired %d timers, want 1", n)
	}
	clk.BlockUntil(2)
	if b.CancelRequested() {
		t.Fatal("cancel armed while riders were still live")
	}

	// Both riders give up; their Submit calls return context errors.
	cancel1()
	cancel2()
	<-errs
	<-errs

	// Now the abort fires for real.
	clk.Advance(2 * time.Hour)
	for i := 0; m.BatchesAborted.Value() != 1; i++ {
		if i > 1e8 {
			t.Fatalf("batch abort not counted; cancel requested=%v", b.CancelRequested())
		}
		runtime.Gosched()
	}
}

// TestBrownoutIdleBitIdentical: a server with the brownout controller
// enabled but unpressured (level 0) serves outputs bit-identical to a
// direct forward pass — the controller only changes results while it
// is actively shedding. (The disabled-controller identity is covered
// by TestServeMatchesDirectForwardBitForBit, which runs with the
// always-installed cancel hook.)
func TestBrownoutIdleBitIdentical(t *testing.T) {
	net, images := testNetwork(t, 3)
	srv, err := New(net, capsnet.ExactMath{}, Config{
		MaxBatch: 4,
		MaxDelay: time.Millisecond,
		Brownout: BrownoutConfig{Enabled: true, AllowApprox: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	nc := net.Config.Classes
	for i, img := range images[:3] {
		out := net.ForwardBatch([][]float32{img}, capsnet.ExactMath{})
		want := append([]float32(nil), out.Lengths.Data()[:nc]...)
		out.Release()
		resp, cr := postClassify(t, ts.URL, img)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("image %d: status %d", i, resp.StatusCode)
		}
		for j, p := range cr.Probs {
			if math.Float32bits(p) != math.Float32bits(want[j]) {
				t.Fatalf("image %d class %d: idle-brownout served %x, direct %x",
					i, j, math.Float32bits(p), math.Float32bits(want[j]))
			}
		}
	}
	if lvl := srv.Metrics().BrownoutRequests.With("0").Value(); lvl == 0 {
		t.Fatal("level-0 request counter never incremented")
	}
}

// TestAbortTimerNotArmedWithoutDeadlines: a batch containing a rider
// with no context deadline can never fully expire on its own, so the
// abort timer must stay unarmed — while the batch runs, the watchdog is
// the only timer that can fire.
func TestAbortTimerNotArmedWithoutDeadlines(t *testing.T) {
	cfg, clk := onManualClock(Config{MaxBatch: 1, QueueSize: 4, BatchDeadline: 1 << 62})
	run, entered, release := gatedRun()
	b := NewBatcher(cfg, run, nil, 1)
	b.Start()
	defer b.Close(context.Background())

	errCh := make(chan error, 1)
	go func() {
		_, _, err := b.Submit(context.Background(), []float32{1})
		errCh <- err
	}()
	<-entered
	clk.BlockUntil(1) // the watchdog
	if n := clk.Advance(cfg.BatchDeadline - 1); n != 0 {
		t.Errorf("%d timers besides the watchdog fired for a batch with no deadlines", n)
	}
	close(release)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}
