//pimcaps:bitexact

package capsnet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"pimcapsnet/internal/tensor"
)

func randPreds(rng *rand.Rand, nb, nl, nh, ch int) *tensor.Tensor {
	p := tensor.New(nb, nl, nh, ch)
	for i := range p.Data() {
		p.Data()[i] = float32(rng.NormFloat64()) * 0.1
	}
	return p
}

func TestDynamicRoutingShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	preds := randPreds(rng, 2, 6, 3, 4)
	res := DynamicRouting(preds, 3, ExactMath{})
	if sh := res.V.Shape(); sh[0] != 2 || sh[1] != 3 || sh[2] != 4 {
		t.Fatalf("V shape %v", sh)
	}
	if sh := res.C.Shape(); sh[0] != 2 || sh[1] != 6 || sh[2] != 3 {
		t.Fatalf("C shape %v", sh)
	}
}

func TestDynamicRoutingCoefficientsAreDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	preds := randPreds(rng, 3, 8, 5, 4)
	res := DynamicRouting(preds, 3, ExactMath{})
	nl, nh := 8, 5
	for k := 0; k < 3; k++ {
		for i := 0; i < nl; i++ {
			var sum float64
			for j := 0; j < nh; j++ {
				v := res.C.At(k, i, j)
				if v < 0 || v > 1 {
					t.Fatalf("c[%d][%d][%d] = %v outside [0,1]", k, i, j, v)
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-4 {
				t.Fatalf("row %d/%d sums to %v", k, i, sum)
			}
		}
	}
}

func TestDynamicRoutingOutputNormsBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		preds := randPreds(rng, 1, 5, 3, 4)
		res := DynamicRouting(preds, 2, ExactMath{})
		for j := 0; j < 3; j++ {
			if tensor.Norm(res.V.Data()[j*4:(j+1)*4]) > 1.0000001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicRoutingFirstIterationUniform(t *testing.T) {
	// With one iteration, b stays zero so every c_ij = 1/H, making
	// v_j = squash(mean prediction · H/H). Verify c is uniform.
	rng := rand.New(rand.NewSource(3))
	preds := randPreds(rng, 1, 4, 2, 3)
	res := DynamicRouting(preds, 1, ExactMath{})
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(float64(res.C.At(0, i, j))-0.5) > 1e-6 {
				t.Fatalf("c[%d][%d] = %v, want 0.5", i, j, res.C.At(0, i, j))
			}
		}
	}
}

func TestDynamicRoutingConvergesToAgreement(t *testing.T) {
	// Construct predictions where all L capsules agree on H capsule 0
	// and emit noise for H capsule 1. Routing must shift coefficients
	// toward capsule 0 and give it the longer output vector.
	nb, nl, nh, ch := 1, 6, 2, 4
	preds := tensor.New(nb, nl, nh, ch)
	rng := rand.New(rand.NewSource(4))
	target := []float32{0.8, -0.4, 0.3, 0.6}
	for i := 0; i < nl; i++ {
		for d := 0; d < ch; d++ {
			preds.Set(target[d]+float32(rng.NormFloat64())*0.02, 0, i, 0, d)
			preds.Set(float32(rng.NormFloat64())*0.5, 0, i, 1, d)
		}
	}
	res := DynamicRouting(preds, 3, ExactMath{})
	n0 := tensor.Norm(res.V.Data()[0:ch])
	n1 := tensor.Norm(res.V.Data()[ch : 2*ch])
	if n0 <= n1 {
		t.Fatalf("agreed capsule norm %v not larger than noise capsule %v", n0, n1)
	}
	// Coefficients toward capsule 0 must exceed the uniform 0.5.
	for i := 0; i < nl; i++ {
		if res.C.At(0, i, 0) <= 0.5 {
			t.Fatalf("c[%d][0] = %v did not grow above uniform", i, res.C.At(0, i, 0))
		}
	}
}

func TestDynamicRoutingMoreIterationsSharpen(t *testing.T) {
	nb, nl, nh, ch := 1, 6, 2, 4
	preds := tensor.New(nb, nl, nh, ch)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < nl; i++ {
		for d := 0; d < ch; d++ {
			preds.Set(0.5+float32(rng.NormFloat64())*0.02, 0, i, 0, d)
			preds.Set(float32(rng.NormFloat64())*0.3, 0, i, 1, d)
		}
	}
	c2 := DynamicRouting(preds, 2, ExactMath{}).C.At(0, 0, 0)
	c5 := DynamicRouting(preds, 5, ExactMath{}).C.At(0, 0, 0)
	if c5 <= c2 {
		t.Fatalf("coefficient should sharpen with iterations: %v (5 it) vs %v (2 it)", c5, c2)
	}
}

func TestDynamicRoutingBatchConsistency(t *testing.T) {
	// Duplicated batch elements must produce identical outputs in
	// both routing modes.
	rng := rand.New(rand.NewSource(6))
	p1 := randPreds(rng, 1, 5, 3, 4)
	p2 := tensor.New(2, 5, 3, 4)
	copy(p2.Data()[:p1.Len()], p1.Data())
	copy(p2.Data()[p1.Len():], p1.Data())
	for _, mode := range []RoutingMode{RoutePerSample, RouteBatchShared} {
		r2 := DynamicRoutingMode(p2, 3, ExactMath{}, mode)
		half := r2.V.Len() / 2
		for i := 0; i < half; i++ {
			if r2.V.Data()[i] != r2.V.Data()[half+i] {
				t.Fatalf("%v: identical batch elements produced different outputs", mode)
			}
		}
	}
}

func TestPerSampleIndependentOfBatchComposition(t *testing.T) {
	// Per-sample routing of an element must not depend on which other
	// elements share its batch — the property that makes it the right
	// numerics for accuracy experiments.
	rng := rand.New(rand.NewSource(16))
	a := randPreds(rng, 1, 5, 3, 4)
	bOther := randPreds(rng, 1, 5, 3, 4)
	both := tensor.New(2, 5, 3, 4)
	copy(both.Data()[:a.Len()], a.Data())
	copy(both.Data()[a.Len():], bOther.Data())
	alone := DynamicRouting(a, 3, ExactMath{})
	mixed := DynamicRouting(both, 3, ExactMath{})
	for i := 0; i < alone.V.Len(); i++ {
		if alone.V.Data()[i] != mixed.V.Data()[i] {
			t.Fatal("per-sample routing changed with batch composition")
		}
	}
	// Batch-shared routing, by contrast, couples the elements.
	sharedAlone := DynamicRoutingShared(a, 3, ExactMath{})
	sharedMixed := DynamicRoutingShared(both, 3, ExactMath{})
	same := true
	for i := 0; i < sharedAlone.V.Len(); i++ {
		if sharedAlone.V.Data()[i] != sharedMixed.V.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("batch-shared routing unexpectedly independent of batch composition")
	}
}

func TestBatchSharedCoefficientsIdenticalAcrossBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	preds := randPreds(rng, 3, 4, 2, 3)
	r := DynamicRoutingShared(preds, 3, ExactMath{})
	for k := 1; k < 3; k++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 2; j++ {
				if r.C.At(k, i, j) != r.C.At(0, i, j) {
					t.Fatal("shared coefficients differ across batch")
				}
			}
		}
	}
}

func TestRoutingModeString(t *testing.T) {
	if RoutePerSample.String() != "per-sample" || RouteBatchShared.String() != "batch-shared" {
		t.Fatal("routing mode names wrong")
	}
}

func TestDynamicRoutingPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rank-3 input")
		}
	}()
	DynamicRouting(tensor.New(2, 3, 4), 3, ExactMath{})
}

func TestDynamicRoutingPanicsOnZeroIterations(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 iterations")
		}
	}()
	DynamicRouting(tensor.New(1, 2, 2, 2), 0, ExactMath{})
}

func TestPredictionVectorsKnown(t *testing.T) {
	// 1 batch, 1 L capsule (dim 2), 1 H capsule (dim 2): û = u×W.
	u := tensor.FromSlice([]float32{1, 2}, 1, 1, 2)
	w := tensor.FromSlice([]float32{
		1, 0, // W[0][0] row d=0
		0, 1, // row d=1
	}, 1, 1, 2, 2)
	preds := PredictionVectors(u, w)
	if preds.At(0, 0, 0, 0) != 1 || preds.At(0, 0, 0, 1) != 2 {
		t.Fatalf("identity transform gave %v", preds.Data())
	}
}

func TestPredictionVectorsMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nb, nl, nh, cl, ch := 2, 3, 4, 5, 6
	u := tensor.New(nb, nl, cl)
	for i := range u.Data() {
		u.Data()[i] = float32(rng.NormFloat64())
	}
	w := tensor.New(nl, nh, cl, ch)
	for i := range w.Data() {
		w.Data()[i] = float32(rng.NormFloat64())
	}
	preds := PredictionVectors(u, w)
	for k := 0; k < nb; k++ {
		for i := 0; i < nl; i++ {
			for j := 0; j < nh; j++ {
				// Reference: u_i (1×cl) × W_ij (cl×ch).
				wm := tensor.FromSlice(w.Data()[(i*nh+j)*cl*ch:(i*nh+j+1)*cl*ch], cl, ch)
				uv := tensor.FromSlice(u.Data()[(k*nl+i)*cl:(k*nl+i+1)*cl], 1, cl)
				want := tensor.MatMul(uv, wm)
				for e := 0; e < ch; e++ {
					got := preds.At(k, i, j, e)
					if math.Abs(float64(got-want.Data()[e])) > 1e-5 {
						t.Fatalf("pred[%d,%d,%d,%d] = %v, want %v", k, i, j, e, got, want.Data()[e])
					}
				}
			}
		}
	}
}

func TestPredictionVectorsShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched shapes")
		}
	}()
	PredictionVectors(tensor.New(1, 2, 3), tensor.New(9, 4, 3, 5))
}

func TestExactVsPEMathRoutingClose(t *testing.T) {
	// PE approximations must track exact routing closely — this is
	// the numerical backbone of Table 5.
	rng := rand.New(rand.NewSource(8))
	preds := randPreds(rng, 2, 10, 4, 8)
	exact := DynamicRouting(preds, 3, ExactMath{})
	approx := DynamicRouting(preds, 3, NewPEMath())
	if !approx.V.AllClose(exact.V, 0.08, 0.02) {
		t.Fatal("PE-approximated routing diverged from exact routing")
	}
}

func TestSoftmaxRowsUniformOnZeroLogits(t *testing.T) {
	b := make([]float32, 6)
	c := make([]float32, 6)
	softmaxRows(ExactMath{}, c, b, 2, 3)
	for _, v := range c {
		if math.Abs(float64(v)-1.0/3) > 1e-6 {
			t.Fatalf("uniform softmax gave %v", c)
		}
	}
}

func TestSquashIntoMatchesTensorSquash(t *testing.T) {
	src := []float32{0.3, -0.7, 0.2}
	a := make([]float32, 3)
	b := make([]float32, 3)
	squashInto(ExactMath{}, a, src)
	tensor.Squash(b, src)
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-6 {
			t.Fatalf("squashInto %v vs tensor.Squash %v", a, b)
		}
	}
}

func TestSquashIntoZero(t *testing.T) {
	dst := []float32{1, 1}
	squashInto(NewPEMath(), dst, []float32{0, 0})
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatal("squash of zero must be zero under PE math too")
	}
}

func BenchmarkDynamicRoutingSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	preds := randPreds(rng, 4, 64, 10, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DynamicRouting(preds, 3, ExactMath{})
	}
}

func TestRoutingParallelismDeterministic(t *testing.T) {
	// The parallelized routing loops write disjoint per-sample slices,
	// so repeated runs must be bit-identical in both modes.
	rng := rand.New(rand.NewSource(21))
	preds := randPreds(rng, 9, 33, 7, 8)
	for _, mode := range []RoutingMode{RoutePerSample, RouteBatchShared} {
		a := DynamicRoutingMode(preds, 3, ExactMath{}, mode)
		b := DynamicRoutingMode(preds, 3, ExactMath{}, mode)
		if !a.V.Equal(b.V) || !a.C.Equal(b.C) {
			t.Fatalf("%v: routing is not deterministic under parallelism", mode)
		}
	}
}

// TestFlatRoutingChunksBitIdentical holds the routing loop's chunking
// to a reference that splits nothing: for every worker count 1..4 and
// batch 1..9, in both routing modes, the arena pass's capsules,
// coefficients and logits match serialRouting (whose aggregate is one
// aggregateRange over the whole nb × nh rectangle) bit for bit. Five
// classes put chunk edges mid-row for odd batches at two workers and
// for most shapes beyond.
func TestFlatRoutingChunksBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, mode := range []RoutingMode{RoutePerSample, RouteBatchShared} {
		for workers := 1; workers <= 4; workers++ {
			t.Run(fmt.Sprintf("%v/workers%d", mode, workers), func(t *testing.T) {
				runtime.GOMAXPROCS(workers) // a scratch sizes its chunker from it
				net, err := New(TinyConfig(5))
				if err != nil {
					t.Fatal(err)
				}
				defer net.Close()
				net.Digit.Mode = mode
				for nb := 1; nb <= 9; nb++ {
					out := net.ForwardBatch(arenaTestImages(net, nb, int64(100+nb)), ExactMath{})
					preds := PredictionVectors(out.Primary, net.Digit.Weights)
					wantC, wantB, wantV := serialRouting(preds, net.Digit.Iterations, ExactMath{}, mode)
					for _, c := range []struct {
						name      string
						got, want []float32
					}{
						{"Capsules", out.Capsules.Data(), wantV},
						{"Routing.C", out.Routing.C.Data(), wantC},
						{"Routing.B", out.Routing.B.Data(), wantB},
					} {
						if len(c.got) != len(c.want) {
							t.Fatalf("nb=%d: %s has %d floats, want %d", nb, c.name, len(c.got), len(c.want))
						}
						if at, ok := sameBits(c.got, c.want); !ok {
							t.Errorf("nb=%d: %s[%d] = %v, want %v", nb, c.name, at, c.got[at], c.want[at])
						}
					}
					out.Release()
				}
			})
		}
	}
}

// TestBatchOneRoutingRunsInline runs a batch-1 per-sample routing
// loop on a two-worker chunker with no pool behind it: every stage
// must run inline on the caller, since a send to the missing pool
// panics. Under exact and PE math the result matches the serial
// reference bit for bit.
func TestBatchOneRoutingRunsInline(t *testing.T) {
	const nl, nh, ch, iterations = 37, 10, 16, 3
	for _, m := range []struct {
		name string
		math RoutingMath
	}{{"exact", ExactMath{}}, {"pe", NewPEMath()}} {
		t.Run(m.name, func(t *testing.T) {
			preds := randPreds(rand.New(rand.NewSource(23)), 1, nl, nh, ch)
			r := &routing{
				preds: preds.Data(), b: make([]float32, nl*nh), c: make([]float32, nl*nh),
				v: make([]float32, nh*ch), s: make([]float32, nh*ch),
				nb: 1, nl: nl, nh: nh, ch: ch, math: m.math,
				agreeV: [][]float32{make([]float32, agreeReplicaLen(nh, ch)), make([]float32, agreeReplicaLen(nh, ch))},
			}
			r.bindKernels()
			if r.run(newChunker(nil, 2), RoutePerSample, iterations, nil, nil) {
				t.Fatal("run reports an abort without a cancel hook")
			}
			wantC, wantB, wantV := serialRouting(preds, iterations, m.math, RoutePerSample)
			for _, c := range []struct {
				name      string
				got, want []float32
			}{{"v", r.v, wantV}, {"c", r.c, wantC}, {"b", r.b, wantB}} {
				if at, ok := sameBits(c.got, c.want); !ok {
					t.Errorf("%s[%d] = %v, want %v", c.name, at, c.got[at], c.want[at])
				}
			}
		})
	}
}

// TestAggRangeCoversEachOutputOnce runs aggRange over every chunk
// [lo, hi) of the nb samples with c = 1 and û = 1 on s cleared
// beforehand, so each s_kj element it aggregates reads nl: an output
// the chunk visits twice reads 2·nl, one it skips 0, and anything but
// 0 outside the chunk's samples is a stray write.
func TestAggRangeCoversEachOutputOnce(t *testing.T) {
	const nl, ch = 3, 8
	for _, tc := range []struct{ nb, nh int }{
		{1, 1}, {4, 1}, {1, 10}, {2, 10}, {3, 4}, {8, 10}, {5, 3},
	} {
		nb, nh := tc.nb, tc.nh
		ones := func(n int) []float32 {
			xs := make([]float32, n)
			for i := range xs {
				xs[i] = 1
			}
			return xs
		}
		r := &routing{
			preds: ones(nb * nl * nh * ch), c: ones(nb * nl * nh),
			s: make([]float32, nb*nh*ch), v: make([]float32, nb*nh*ch),
			nb: nb, nl: nl, nh: nh, ch: ch, math: ExactMath{},
		}
		for lo := 0; lo <= nb; lo++ {
			for hi := lo; hi <= nb; hi++ {
				clear(r.s)
				r.aggRange(0, lo, hi)
				for o := 0; o < nb*nh; o++ {
					want := float32(0)
					if lo <= o/nh && o/nh < hi {
						want = nl
					}
					for d, x := range r.s[o*ch : (o+1)*ch] {
						if x != want {
							t.Fatalf("nb=%d nh=%d chunk [%d,%d): s[k=%d][j=%d][%d] = %v, want %v",
								nb, nh, lo, hi, o/nh, o%nh, d, x, want)
						}
					}
				}
			}
		}
	}
}
