package obs

import "sync/atomic"

// StageRecorder adapts this package to capsnet's StageTimer hook: it
// times each forward-pass stage with its own clock (so internal/
// capsnet needs no time source and no obs import), reports every
// stage duration through the OnStage callback (the serving layer's
// per-stage histograms), and — when a batch trace is attached —
// records the stage as a span on that trace.
//
// One recorder serves one inference runner: SetCurrent attaches the
// trace of the batch about to execute, and BeginStage captures that
// pointer, so a forward pass abandoned by the batch watchdog keeps
// writing to its own (already discarded) trace instead of racing the
// next batch's.
type StageRecorder struct {
	clock Clock
	// onStage receives every completed stage: name, routing-iteration
	// index (-1 when not per-iteration), and duration in seconds.
	onStage func(stage string, iter int, seconds float64)
	cur     atomic.Pointer[Trace]
}

// NewStageRecorder builds a recorder. clock may be nil (Wall);
// onStage may be nil when only span recording is wanted.
func NewStageRecorder(clock Clock, onStage func(stage string, iter int, seconds float64)) *StageRecorder {
	if clock == nil {
		clock = Wall
	}
	return &StageRecorder{clock: clock, onStage: onStage}
}

// SetCurrent attaches the trace stage spans should land on (nil to
// detach — histograms keep observing either way).
func (r *StageRecorder) SetCurrent(t *Trace) { r.cur.Store(t) }

// BeginStage implements capsnet.StageTimer (structurally): it stamps
// the stage start and returns the closure that completes the stage.
func (r *StageRecorder) BeginStage(stage string, iteration int) func() {
	start := r.clock.Now()
	t := r.cur.Load()
	return func() {
		end := r.clock.Now()
		if r.onStage != nil {
			r.onStage(stage, iteration, end.Sub(start).Seconds())
		}
		t.Add(stage, iteration, start, end)
	}
}
