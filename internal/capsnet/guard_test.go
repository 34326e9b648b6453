package capsnet

import (
	"math"
	"testing"

	"pimcapsnet/internal/tensor"
)

// nanExpMath corrupts only the softmax exponential (evaluated on the
// routing dispatcher goroutine, so no cross-worker state): every Exp
// returns NaN, poisoning the coefficients and therefore every output
// capsule — the worst case the approximate PE path can degrade to.
type nanExpMath struct{ ExactMath }

func (nanExpMath) Exp(float32) float32 { return float32(math.NaN()) }

func testBatch(t *testing.T, n *Network, nb int) *tensor.Tensor {
	t.Helper()
	batch := tensor.New(nb, n.Config.InputChannels, n.Config.InputH, n.Config.InputW)
	for i := range batch.Data() {
		batch.Data()[i] = float32(i%17) / 17
	}
	return batch
}

// TestFiniteGuardFallsBackToExact: when the approximate math path
// produces non-finite capsules, every affected sample is re-routed
// with exact math and ends up bit-identical to a fully exact forward
// pass — NaN never reaches the class probabilities.
func TestFiniteGuardFallsBackToExact(t *testing.T) {
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	batch := testBatch(t, net, 3)

	exact := net.Forward(batch, ExactMath{})
	if len(exact.ExactFallbacks) != 0 || len(exact.NonFinite) != 0 {
		t.Fatalf("exact forward degraded: fallbacks %v, non-finite %v", exact.ExactFallbacks, exact.NonFinite)
	}

	before := net.RoutingFallbacks()
	got := net.Forward(batch, nanExpMath{})
	if len(got.ExactFallbacks) != 3 {
		t.Fatalf("fallbacks %v, want all 3 samples", got.ExactFallbacks)
	}
	if len(got.NonFinite) != 0 {
		t.Fatalf("samples %v still non-finite after exact fallback", got.NonFinite)
	}
	if net.RoutingFallbacks() != before+3 {
		t.Fatalf("fallback counter %d, want %d", net.RoutingFallbacks(), before+3)
	}
	for i, v := range got.Lengths.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("class probability %d is %v after fallback", i, v)
		}
	}
	if !got.Capsules.Equal(exact.Capsules) {
		t.Fatal("fallback capsules differ from a fully exact forward pass")
	}
}

// TestFiniteGuardReportsUnrecoverable: when the routing inputs
// themselves are corrupt (injected NaN), exact math cannot recover
// and the sample must be reported in NonFinite — per sample, leaving
// clean batchmates untouched.
func TestFiniteGuardReportsUnrecoverable(t *testing.T) {
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	batch := testBatch(t, net, 3)
	perSample := net.NumPrimaryCaps() * net.Config.PrimaryDim
	net.RoutingInputHook = func(data []float32) {
		// Poison only sample 1's routing inputs.
		data[perSample+2] = float32(math.NaN())
	}
	got := net.Forward(batch, NewPEMath())
	if len(got.NonFinite) != 1 || got.NonFinite[0] != 1 {
		t.Fatalf("non-finite samples %v, want [1]", got.NonFinite)
	}
	nc := net.Config.Classes
	for _, k := range []int{0, 2} {
		for j := 0; j < nc; j++ {
			v := got.Lengths.Data()[k*nc+j]
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("clean sample %d has non-finite probability %v", k, v)
			}
		}
	}
}

// TestFiniteGuardZeroOverheadPath: with exact math and no hook, a
// forward pass reports no degradation and the hook field stays nil —
// the disabled-injector configuration is the production one.
func TestFiniteGuardZeroOverheadPath(t *testing.T) {
	net, err := New(TinyConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if net.RoutingInputHook != nil {
		t.Fatal("hook armed by default")
	}
	out := net.Forward(testBatch(t, net, 2), ExactMath{})
	if out.ExactFallbacks != nil || out.NonFinite != nil {
		t.Fatalf("degradation on the clean path: %v / %v", out.ExactFallbacks, out.NonFinite)
	}
	if net.RoutingFallbacks() != 0 {
		t.Fatalf("fallback counter %d on the clean path", net.RoutingFallbacks())
	}
}

// TestFiniteGuardFallbackKeepsIterationLimit: the exact-math repair
// runs the pass it repairs. Under brownout (IterationLimit below the
// configured count) a repaired sample gets the clipped count its
// batch-mates got, so its capsules and coefficients are the bits of an
// ExactMath pass under the same limit.
func TestFiniteGuardFallbackKeepsIterationLimit(t *testing.T) {
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.IterationLimit = func() int { return 1 }
	batch := testBatch(t, net, 3)

	exact := net.Forward(batch, ExactMath{}) // never released: keeps its buffers
	got := net.Forward(batch, nanExpMath{})
	defer got.Release()
	if len(got.ExactFallbacks) != 3 || len(got.NonFinite) != 0 {
		t.Fatalf("fallbacks %v, non-finite %v, want all 3 samples repaired", got.ExactFallbacks, got.NonFinite)
	}
	for name, pair := range map[string][2]*tensor.Tensor{
		"V": {got.Routing.V, exact.Routing.V},
		"C": {got.Routing.C, exact.Routing.C},
	} {
		for i, v := range pair[1].Data() {
			if math.Float32bits(v) != math.Float32bits(pair[0].Data()[i]) {
				t.Fatalf("%s[%d]: repaired %v != exact pass under the same limit %v", name, i, pair[0].Data()[i], v)
			}
		}
	}
}

// TestFiniteGuardFallbackAllocFree: the repair reuses the pass's own û
// and routing buffers, so a pass that takes it allocates only the
// ExactFallbacks slice it reports.
func TestFiniteGuardFallbackAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	images := arenaTestImages(net, 1, 3)
	mathOps := RoutingMath(nanExpMath{})
	for i := 0; i < 2; i++ {
		net.ForwardBatch(images, mathOps).Release()
	}
	repaired := 0
	allocs := testing.AllocsPerRun(10, func() {
		out := net.ForwardBatch(images, mathOps)
		repaired += len(out.ExactFallbacks)
		out.Release()
	})
	if repaired != 11 { // AllocsPerRun's warm-up call plus ten measured
		t.Fatalf("%d passes took the fallback, want 11", repaired)
	}
	if allocs != 1 {
		t.Fatalf("a pass that takes the fallback allocated %.1f times, want 1 (the ExactFallbacks append)", allocs)
	}
}
