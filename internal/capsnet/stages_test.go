package capsnet

import (
	"math"
	"math/rand"
	"testing"

	"pimcapsnet/internal/tensor"
)

// stageCall is one BeginStage/end pair a fakeStageTimer recorded.
type stageCall struct {
	stage string
	iter  int
	ended bool
}

// fakeStageTimer records the stage sequence. Not concurrency-safe —
// stage sites are all called from the single forward-pass goroutine.
type fakeStageTimer struct {
	calls []stageCall
}

func (f *fakeStageTimer) BeginStage(stage string, iteration int) func() {
	i := len(f.calls)
	f.calls = append(f.calls, stageCall{stage: stage, iter: iteration})
	return func() { f.calls[i].ended = true }
}

// TestStageTimerSequence checks a timed forward pass reports every
// pipeline stage in order, with per-iteration routing stages carrying
// their iteration index, and that every stage is ended.
func TestStageTimerSequence(t *testing.T) {
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	ft := &fakeStageTimer{}
	net.Stages = ft
	batch := tensor.New(2, 1, 12, 12)
	rng := rand.New(rand.NewSource(7))
	for i := range batch.Data() {
		batch.Data()[i] = rng.Float32()
	}
	net.Forward(batch, ExactMath{})

	want := []stageCall{
		{StageConv, -1, true},
		{StagePrimaryCaps, -1, true},
		{StagePredictionVectors, -1, true},
	}
	iters := net.Config.RoutingIterations
	for it := 0; it < iters; it++ {
		want = append(want,
			stageCall{StageRoutingIteration, it, true},
			stageCall{StageRoutingSoftmax, it, true},
			stageCall{StageRoutingAggregate, it, true},
		)
		if it < iters-1 {
			want = append(want, stageCall{StageRoutingAgreement, it, true})
		}
	}
	want = append(want, stageCall{StageFiniteGuard, -1, true}, stageCall{StageLengths, -1, true})

	// The recorded order interleaves (iteration begins before its
	// sub-stages), so compare as begin-order sequences.
	if len(ft.calls) != len(want) {
		t.Fatalf("recorded %d stages, want %d:\n%+v", len(ft.calls), len(want), ft.calls)
	}
	for i, c := range ft.calls {
		if c.stage != want[i].stage || c.iter != want[i].iter {
			t.Errorf("stage %d: got %s/%d, want %s/%d", i, c.stage, c.iter, want[i].stage, want[i].iter)
		}
		if !c.ended {
			t.Errorf("stage %d (%s) never ended", i, c.stage)
		}
	}
}

// TestStageTimerPreservesOutputs holds the load-bearing invariant of
// the timed path: attaching a StageTimer changes no output bit, for
// both routing modes and both math implementations.
func TestStageTimerPreservesOutputs(t *testing.T) {
	for _, shared := range []bool{false, true} {
		cfg := TinyConfig(4)
		cfg.SharedRouting = shared
		for _, mathOps := range []RoutingMath{ExactMath{}, NewPEMath()} {
			plain, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			timed, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			timed.Stages = &fakeStageTimer{}

			batch := tensor.New(3, 1, 12, 12)
			rng := rand.New(rand.NewSource(11))
			for i := range batch.Data() {
				batch.Data()[i] = rng.Float32()
			}
			a := plain.Forward(batch, mathOps)
			b := timed.Forward(batch, mathOps)
			for i, v := range a.Capsules.Data() {
				if math.Float32bits(v) != math.Float32bits(b.Capsules.Data()[i]) {
					t.Fatalf("shared=%v math=%T: capsule %d differs: %x vs %x",
						shared, mathOps, i, math.Float32bits(v), math.Float32bits(b.Capsules.Data()[i]))
				}
			}
			for i, v := range a.Lengths.Data() {
				if math.Float32bits(v) != math.Float32bits(b.Lengths.Data()[i]) {
					t.Fatalf("shared=%v math=%T: length %d differs", shared, mathOps, i)
				}
			}
		}
	}
}

// TestUntimedForwardHasNoTimerCost double-checks a forward pass with
// no StageTimer installed runs every stage site on the nil timer.
func TestUntimedForwardHasNoTimerCost(t *testing.T) {
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	batch := tensor.New(1, 1, 12, 12)
	for i := range batch.Data() {
		batch.Data()[i] = 0.5
	}
	out := net.Forward(batch, ExactMath{})
	if out.Lengths.Dim(1) != 3 {
		t.Fatalf("lengths shape %v", out.Lengths.Shape())
	}
}
