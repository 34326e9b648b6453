package capsnet

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	_ "unsafe" // go:linkname, to reach tensor's unexported switch from this test file only
)

// tensorPacked is internal/tensor's packed switch: turning the packed
// path off for a forward pass means turning off the convolution's too.
//
//go:linkname tensorPacked pimcapsnet/internal/tensor.packed
var tensorPacked bool

// cpuHasPacked is what init found, whatever withPacked has done since.
var cpuHasPacked = packed

// withPacked runs fn with every packed micro-kernel of the forward
// pass on or off. It and its siblings in internal/tensor and
// internal/serve are the only writers of the two switches after init;
// tests that use it must not run in parallel.
func withPacked(t testing.TB, on bool, fn func()) {
	t.Helper()
	if on && !cpuHasPacked {
		t.Skip("this CPU has no packed path")
	}
	defer func(c, x bool) { packed, tensorPacked = c, x }(packed, tensorPacked)
	packed, tensorPacked = on, on
	fn()
}

// TestIdentitySuiteOnGoKernels re-runs, with the packed path switched
// off, the tests that pin the forward pass's bits — to an earlier
// commit, across batch size, partition, worker count and arena reuse,
// and through the finite-value guard — so the Go kernels stay held to
// the same constants as the packed ones on a host that would otherwise
// never execute them.
func TestIdentitySuiteOnGoKernels(t *testing.T) {
	if !cpuHasPacked {
		t.Skip("this CPU has no packed path: the suite already ran on the Go kernels")
	}
	withPacked(t, false, func() {
		for _, tc := range []struct {
			name string
			fn   func(*testing.T)
		}{
			{"PinnedParent", TestLengthsBitIdenticalToPinnedParent},
			{"ArenaReuse", TestArenaReuseBitIdentical},
			{"ForcedPartitions", TestForcedPartitionsBitIdentical},
			{"BatchComposition", TestPerSampleIndependentOfBatchComposition},
			{"BatchConsistency", TestDynamicRoutingBatchConsistency},
			{"RoutingParallelism", TestRoutingParallelismDeterministic},
			{"ChunkedSoftmax", TestChunkedSoftmaxBitIdenticalToSerial},
			{"NetworkDeterministic", TestNetworkDeterministic},
			{"StageTimer", TestStageTimerPreservesOutputs},
			{"FiniteGuardFallback", TestFiniteGuardFallsBackToExact},
			{"FiniteGuardUnrecoverable", TestFiniteGuardReportsUnrecoverable},
			{"Eq1TileEdges", TestPredictionVectorsRangeTileEdgesBitIdentical},
		} {
			t.Run(tc.name, tc.fn)
		}
	})
}

// guarded returns n floats carved out of the middle of a larger buffer
// whose margins hold fill, and a check that the margins still do.
func guarded(n int, fill float32) (inner []float32, intact func() bool) {
	const margin = 16
	buf := make([]float32, n+2*margin)
	for i := range buf {
		buf[i] = fill
	}
	want := math.Float32bits(fill)
	return buf[margin : margin+n : margin+n], func() bool {
		for _, v := range buf[:margin] {
			if math.Float32bits(v) != want {
				return false
			}
		}
		for _, v := range buf[margin+n:] {
			if math.Float32bits(v) != want {
				return false
			}
		}
		return true
	}
}

// TestAggregateRangePackedBitIdenticalToGoLoop runs Eq. 2+3 on the
// packed path over the rectangles both partitions cut (sample ranges ×
// all capsules, all samples × capsule ranges) and over capsule widths
// with one, two and three vectors, against the Go loop. Seeded into the
// operands: c_ij = +0 and −0 facing û rows of +Inf, −Inf and NaN (the
// skip must hold, or the sum is poisoned), and a NaN and a +Inf û in
// single lanes under ordinary coefficients (that lane of s must carry
// exactly the Go loop's bits, its neighbours stay finite). Operands
// are carved out of NaN margins, s and v out of sentinel margins and
// prefilled with a sentinel outside the rectangle; all must survive.
func TestAggregateRangePackedBitIdenticalToGoLoop(t *testing.T) {
	const nb, nl, nh = 3, 7, 10
	const sentinel = float32(-12345)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	rects := [][4]int{
		{0, nb, 0, nh}, {0, 1, 0, nh}, {1, 3, 0, nh}, // B-partition
		{0, nb, 0, 4}, {0, nb, 4, 7}, {0, nb, 9, nh}, // H-partition
	}
	for _, ch := range []int{8, 16, 24} {
		rng := rand.New(rand.NewSource(int64(ch)))
		pd, pdOK := guarded(nb*nl*nh*ch, nan)
		cd, cdOK := guarded(nb*nl*nh, nan)
		for i := range pd {
			pd[i] = rng.Float32() - 0.5
		}
		for i := range cd {
			cd[i] = rng.Float32()
		}
		at := func(k, i, j int) int { return (k*nl+i)*nh + j }
		for k := 0; k < nb; k++ {
			for n, bad := range []float32{inf, -inf, nan} {
				for _, zero := range []float32{0, negZero} {
					i, j := 1+2*n, (k+3*n)%nh
					if zero != 0 || math.Signbit(float64(zero)) {
						j = (j + 5) % nh
					}
					cd[at(k, i, j)] = zero
					row := pd[at(k, i, j)*ch : (at(k, i, j)+1)*ch]
					for e := range row {
						row[e] = bad
					}
				}
			}
			pd[at(k, 0, 2)*ch+3] = nan
			pd[at(k, nl-1, 8)*ch+ch-1] = inf
		}
		for _, r := range rects {
			klo, khi, jlo, jhi := r[0], r[1], r[2], r[3]
			name := fmt.Sprintf("ch=%d [%d,%d)×[%d,%d)", ch, klo, khi, jlo, jhi)
			run := func(on bool) (s, v []float32, intact func() bool) {
				s, sOK := guarded(nb*nh*ch, sentinel)
				v, vOK := guarded(nb*nh*ch, sentinel)
				for k := 0; k < nb; k++ {
					for j := 0; j < nh; j++ {
						for e := 0; e < ch; e++ {
							x := float32(0)
							if k < klo || k >= khi || j < jlo || j >= jhi {
								x = sentinel
							}
							s[(k*nh+j)*ch+e], v[(k*nh+j)*ch+e] = x, sentinel
						}
					}
				}
				withPacked(t, on, func() {
					aggregateRange(ExactMath{}, pd, cd, s, v, nl, nh, ch, klo, khi, jlo, jhi)
				})
				return s, v, func() bool { return sOK() && vOK() }
			}
			wantS, wantV, _ := run(false)
			gotS, gotV, intact := run(true)
			if at, ok := sameBits(gotS, wantS); !ok {
				t.Fatalf("%s: s[%d] = %x, want %x", name, at, math.Float32bits(gotS[at]), math.Float32bits(wantS[at]))
			}
			if at, ok := sameBits(gotV, wantV); !ok {
				t.Fatalf("%s: v[%d] = %x, want %x", name, at, math.Float32bits(gotV[at]), math.Float32bits(wantV[at]))
			}
			if !intact() || !pdOK() || !cdOK() {
				t.Fatalf("%s: wrote outside an operand", name)
			}
			for k := klo; k < khi; k++ {
				for j := jlo; j < jhi; j++ {
					for e := 0; e < ch; e++ {
						x := float64(gotS[(k*nh+j)*ch+e])
						poisoned := (j == 2 && e == 3) || (j == 8 && e == ch-1)
						if finite := !math.IsNaN(x) && !math.IsInf(x, 0); finite == poisoned {
							t.Fatalf("%s: s[%d,%d,%d] = %v, poisoned lane %v", name, k, j, e, x, poisoned)
						}
					}
				}
			}
		}
	}
}

// TestPredictionVectorsNonFiniteWeightStaysInItsLane: a NaN and a
// +Inf weight (the fault campaign's flipped bits) poison, on the packed
// path, exactly the output elements they poison in the Go tiles, with
// the same bits — in a group of four samples and in the one left over.
func TestPredictionVectorsNonFiniteWeightStaysInItsLane(t *testing.T) {
	const nb, nl, cl, nh, ch = 5, 2, 8, 3, 16
	rng := rand.New(rand.NewSource(18))
	ud := make([]float32, nb*nl*cl)
	wd := make([]float32, nl*nh*cl*ch)
	for _, xs := range [][]float32{ud, wd} {
		for i := range xs {
			xs[i] = rng.Float32() - 0.5
		}
	}
	wd[((0*nh+1)*cl+2)*ch+5] = float32(math.NaN())   // capsule 0, block 1, lane 5
	wd[((1*nh+2)*cl+7)*ch+15] = float32(math.Inf(1)) // capsule 1, block 2, lane 15
	run := func(on bool) []float32 {
		od := make([]float32, nb*nl*nh*ch)
		withPacked(t, on, func() { predictionVectorsRange(ud, wd, od, nb, nl, cl, nh, ch, 0, nl) })
		return od
	}
	want, got := run(false), run(true)
	if at, ok := sameBits(got, want); !ok {
		t.Fatalf("û[%d] = %x, want %x", at, math.Float32bits(got[at]), math.Float32bits(want[at]))
	}
	bad := 0
	for _, v := range got {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			bad++
		}
	}
	if bad != 2*nb {
		t.Fatalf("%d non-finite outputs, want one per sample and bad weight (%d)", bad, 2*nb)
	}
}

// TestRangeKernelsRejectBadLengths: the range kernels check every
// length in Go before either body touches memory.
func TestRangeKernelsRejectBadLengths(t *testing.T) {
	const nb, nl, cl, nh, ch = 4, 3, 8, 2, 16
	for _, on := range []bool{false, true} {
		for _, tc := range []struct {
			name string
			call func()
			want string
		}{
			{"Eq1 short u", func() {
				predictionVectorsRange(make([]float32, nb*nl*cl-1), make([]float32, nl*nh*cl*ch), make([]float32, nb*nl*nh*ch), nb, nl, cl, nh, ch, 0, nl)
			}, "predictionVectorsRange u length"},
			{"Eq1 short W", func() {
				predictionVectorsRange(make([]float32, nb*nl*cl), make([]float32, nl*nh*cl*ch-1), make([]float32, nb*nl*nh*ch), nb, nl, cl, nh, ch, 0, nl)
			}, "predictionVectorsRange W length"},
			{"Eq1 short û", func() {
				predictionVectorsRange(make([]float32, nb*nl*cl), make([]float32, nl*nh*cl*ch), make([]float32, nb*nl*nh*ch-1), nb, nl, cl, nh, ch, 0, nl)
			}, "predictionVectorsRange û length"},
			{"Eq1 range past L", func() {
				predictionVectorsRange(make([]float32, nb*nl*cl), make([]float32, nl*nh*cl*ch), make([]float32, nb*nl*nh*ch), nb, nl, cl, nh, ch, 1, nl+1)
			}, "predictionVectorsRange capsules [1,4)"},
			{"Eq2 short û", func() {
				aggregateRange(ExactMath{}, make([]float32, nb*nl*nh*ch-1), make([]float32, nb*nl*nh), make([]float32, nb*nh*ch), make([]float32, nb*nh*ch), nl, nh, ch, 0, nb, 0, nh)
			}, "aggregateRange û length"},
			{"Eq2 short c", func() {
				aggregateRange(ExactMath{}, make([]float32, nb*nl*nh*ch), make([]float32, nb*nl*nh-1), make([]float32, nb*nh*ch), make([]float32, nb*nh*ch), nl, nh, ch, 0, nb, 0, nh)
			}, "aggregateRange c length"},
			{"Eq2 short s", func() {
				aggregateRange(ExactMath{}, make([]float32, nb*nl*nh*ch), make([]float32, nb*nl*nh), make([]float32, nb*nh*ch-1), make([]float32, nb*nh*ch), nl, nh, ch, 0, nb, 0, nh)
			}, "aggregateRange s, v lengths"},
			{"Eq2 short v", func() {
				aggregateRange(ExactMath{}, make([]float32, nb*nl*nh*ch), make([]float32, nb*nl*nh), make([]float32, nb*nh*ch), make([]float32, nb*nh*ch-1), nl, nh, ch, 0, nb, 0, nh)
			}, "aggregateRange s, v lengths"},
			{"Eq2 capsules past H", func() {
				aggregateRange(ExactMath{}, make([]float32, nb*nl*nh*ch), make([]float32, nb*nl*nh), make([]float32, nb*nh*ch), make([]float32, nb*nh*ch), nl, nh, ch, 0, nb, 1, nh+1)
			}, "aggregateRange rectangle"},
		} {
			t.Run(fmt.Sprintf("packed=%v/%s", on, tc.name), func(t *testing.T) {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
						t.Fatalf("panic %q, want one naming %q", msg, tc.want)
					}
				}()
				withPacked(t, on, tc.call)
			})
		}
	}
}
