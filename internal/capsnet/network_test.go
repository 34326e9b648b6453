package capsnet

import (
	"math/rand"
	"testing"

	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/tensor"
)

func TestConfigValidate(t *testing.T) {
	if err := MNISTConfig().Validate(); err != nil {
		t.Fatalf("MNISTConfig invalid: %v", err)
	}
	if err := TinyConfig(4).Validate(); err != nil {
		t.Fatalf("TinyConfig invalid: %v", err)
	}
	bad := TinyConfig(4)
	bad.ConvKernel = 50
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized kernel accepted")
	}
	bad2 := TinyConfig(4)
	bad2.RoutingIterations = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero iterations accepted")
	}
	bad3 := TinyConfig(0)
	if err := bad3.Validate(); err == nil {
		t.Fatal("zero classes accepted")
	}
}

func TestNetworkForwardShapes(t *testing.T) {
	net, err := New(TinyConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// Tiny: 12×12 → conv 5/1 → 8×8 → primary 5/2 → 2×2 ×4ch = 16 L caps.
	if got := net.NumPrimaryCaps(); got != 16 {
		t.Fatalf("NumPrimaryCaps = %d, want 16", got)
	}
	batch := tensor.New(3, 1, 12, 12)
	rng := rand.New(rand.NewSource(1))
	for i := range batch.Data() {
		batch.Data()[i] = rng.Float32()
	}
	out := net.Forward(batch, ExactMath{})
	if sh := out.Capsules.Shape(); sh[0] != 3 || sh[1] != 4 || sh[2] != 16 {
		t.Fatalf("capsule shape %v", sh)
	}
	if sh := out.Lengths.Shape(); sh[0] != 3 || sh[1] != 4 {
		t.Fatalf("lengths shape %v", sh)
	}
	for _, l := range out.Lengths.Data() {
		if l < 0 || l > 1.0000001 {
			t.Fatalf("capsule length %v outside [0,1]", l)
		}
	}
	if got := len(out.Predictions()); got != 3 {
		t.Fatalf("predictions length %d", got)
	}
}

func TestNetworkDeterministic(t *testing.T) {
	cfg := TinyConfig(3)
	n1, _ := New(cfg)
	n2, _ := New(cfg)
	batch := tensor.New(1, 1, 12, 12)
	for i := range batch.Data() {
		batch.Data()[i] = float32(i%7) / 7
	}
	o1 := n1.Forward(batch, ExactMath{})
	o2 := n2.Forward(batch, ExactMath{})
	if !o1.Capsules.Equal(o2.Capsules) {
		t.Fatal("same seed must give identical networks")
	}
}

func TestNetworkWithDecoderReconstructs(t *testing.T) {
	cfg := TinyConfig(3)
	cfg.WithDecoder = true
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := tensor.New(1, 1, 12, 12)
	out := net.Forward(batch, ExactMath{})
	recon := net.Reconstruct(out, 0, 1)
	if len(recon) != 144 {
		t.Fatalf("reconstruction length %d, want 144", len(recon))
	}
	for _, v := range recon {
		if v < 0 || v > 1 {
			t.Fatalf("sigmoid output %v outside [0,1]", v)
		}
	}
}

func TestReconstructWithoutDecoderPanics(t *testing.T) {
	net, _ := New(TinyConfig(3))
	out := net.Forward(tensor.New(1, 1, 12, 12), ExactMath{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without decoder")
		}
	}()
	net.Reconstruct(out, 0, 0)
}

func TestFCLayerActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	relu := NewFCLayer(4, 8, ActReLU, rng)
	out := relu.Forward([]float32{1, -1, 0.5, 2})
	for _, v := range out {
		if v < 0 {
			t.Fatal("ReLU output negative")
		}
	}
	sig := NewFCLayer(4, 8, ActSigmoid, rng)
	out = sig.Forward([]float32{1, -1, 0.5, 2})
	for _, v := range out {
		if v <= 0 || v >= 1 {
			t.Fatal("sigmoid output outside (0,1)")
		}
	}
	none := NewFCLayer(2, 1, ActNone, rng)
	none.Weights.Set(1, 0, 0)
	none.Weights.Set(1, 0, 1)
	none.Bias[0] = -5
	if got := none.Forward([]float32{2, 3})[0]; got != 0 {
		t.Fatalf("linear layer = %v, want 0", got)
	}
}

func TestMarginLoss(t *testing.T) {
	// Perfect prediction: correct class at length ≥ m+, others ≤ m−.
	lengths := []float32{0.95, 0.05, 0.02}
	if l := MarginLoss(lengths, 0); l != 0 {
		t.Fatalf("perfect prediction loss %v, want 0", l)
	}
	// Worst case: correct at 0, wrong at 1.
	lengths = []float32{0, 1, 1}
	l := MarginLoss(lengths, 0)
	want := float32(MarginPlus*MarginPlus) + 2*MarginDown*float32((1-MarginMinus)*(1-MarginMinus))
	if absf(l-want) > 1e-5 {
		t.Fatalf("worst-case loss %v, want %v", l, want)
	}
}

func TestMarginLossGradSigns(t *testing.T) {
	lengths := []float32{0.5, 0.5}
	g := MarginLossGrad(lengths, 0)
	if g[0] >= 0 {
		t.Fatal("gradient must push correct class length up (negative grad)")
	}
	if g[1] <= 0 {
		t.Fatal("gradient must push wrong class length down (positive grad)")
	}
	// Beyond margins: zero gradient.
	g = MarginLossGrad([]float32{0.95, 0.05}, 0)
	if g[0] != 0 || g[1] != 0 {
		t.Fatalf("gradient beyond margins %v, want zeros", g)
	}
}

func TestReconstructionLoss(t *testing.T) {
	if ReconstructionLoss([]float32{1, 2}, []float32{1, 2}) != 0 {
		t.Fatal("identical vectors must have zero loss")
	}
	if got := ReconstructionLoss([]float32{1}, []float32{0}); absf(got-0.0005) > 1e-9 {
		t.Fatalf("loss %v, want 0.0005", got)
	}
}

func TestTrainerLearnsSyntheticClasses(t *testing.T) {
	// End-to-end: train the capsule layer on the tiny synthetic
	// dataset and verify accuracy climbs well above chance.
	spec := dataset.Tiny(3)
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(60)
	test := gen.Generate(30)

	cfg := TinyConfig(3)
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(net, 1.0)
	imgLen := 12 * 12
	for epoch := 0; epoch < 25; epoch++ {
		for b := 0; b < 60; b += 15 {
			batch := tensor.FromSlice(train.Images.Data()[b*imgLen:(b+15)*imgLen], 15, 1, 12, 12)
			tr.TrainBatch(batch, train.Labels[b:b+15])
		}
	}
	acc := Evaluate(net, test.Images, test.Labels, ExactMath{})
	if acc < 0.8 {
		t.Fatalf("trained accuracy %.2f below 0.8 — trainer failed to learn", acc)
	}
}

func TestTrainerReducesLoss(t *testing.T) {
	spec := dataset.Tiny(2)
	gen := dataset.NewGenerator(spec)
	ds := gen.Generate(20)
	net, _ := New(TinyConfig(2))
	tr := NewTrainer(net, 0.3)
	first, _ := tr.TrainBatch(ds.Images, ds.Labels)
	var last float32
	for i := 0; i < 10; i++ {
		last, _ = tr.TrainBatch(ds.Images, ds.Labels)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %v, last %v", first, last)
	}
}

func TestTrainBatchLabelMismatchPanics(t *testing.T) {
	net, _ := New(TinyConfig(2))
	tr := NewTrainer(net, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label/batch mismatch")
		}
	}()
	tr.TrainBatch(tensor.New(2, 1, 12, 12), []int{0})
}

func absf(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}
