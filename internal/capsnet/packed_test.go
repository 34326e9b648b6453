package capsnet

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pimcapsnet/internal/packedtest"
	"pimcapsnet/internal/tensor"
)

// TestIdentitySuiteOnGoKernels re-runs, with the packed path switched
// off, the tests that pin the forward pass's bits — to an earlier
// commit, across batch size, partition, worker count and arena reuse,
// and through the finite-value guard — so the Go kernels of all four
// equations stay held to the same constants as the packed ones on a
// host that would otherwise never execute them.
func TestIdentitySuiteOnGoKernels(t *testing.T) {
	if packedtest.Detected() == packedtest.Off {
		t.Skip("this CPU has no packed path: the suite already ran on the Go kernels")
	}
	identitySuiteAt(t, packedtest.Off)
}

// TestIdentitySuiteOnAVX2Kernels re-runs the same suite with the detect
// pinned at AVX2. Where the CPU has FMA or AVX-512 the plain run takes
// Eq. 5's packed exp and Conv2DInto's ZMM tile, so without this the
// AVX2 bodies they replace would be held to the constants only on
// runners without them.
func TestIdentitySuiteOnAVX2Kernels(t *testing.T) {
	if packedtest.Detected() == packedtest.AVX2 {
		t.Skip("this CPU's highest level is AVX2: the suite already ran on it")
	}
	identitySuiteAt(t, packedtest.AVX2)
}

func identitySuiteAt(t *testing.T, l packedtest.Level) {
	packedtest.At(t, l, func() {
		if tensor.Packed() != (l >= packedtest.AVX2) || tensor.PackedFMA() != (l >= packedtest.FMA) {
			t.Fatalf("pinned at %v, Packed() = %v, PackedFMA() = %v: Eqs. 1, 2, 4 read tensor.Packed, Eq. 5 tensor.PackedFMA",
				l, tensor.Packed(), tensor.PackedFMA())
		}
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
				packedtest.With(t, on, func() {
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
		packedtest.With(t, on, func() { predictionVectorsRange(ud, wd, od, nb, nl, cl, nh, ch, 0, nl) })
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
			{"Eq4 short û", func() {
				agreementRows(make([]float32, nb*nl*nh*ch-1), make([]float32, nb*nh*ch), make([]float32, nb*nl*nh), make([]float32, agreeReplicaLen(nh, ch)), nl, nh, ch, 0, nb*nl)
			}, "agreementRows û length"},
			{"Eq4 short v", func() {
				agreementRows(make([]float32, nb*nl*nh*ch), make([]float32, nb*nh*ch-1), make([]float32, nb*nl*nh), make([]float32, agreeReplicaLen(nh, ch)), nl, nh, ch, 0, nb*nl)
			}, "agreementRows v length"},
			{"Eq4 short b", func() {
				agreementRows(make([]float32, nb*nl*nh*ch), make([]float32, nb*nh*ch), make([]float32, nb*nl*nh-1), make([]float32, agreeReplicaLen(nh, ch)), nl, nh, ch, 0, nb*nl)
			}, "agreementRows b length"},
			{"Eq4 short replica", func() {
				agreementRows(make([]float32, nb*nl*nh*ch), make([]float32, nb*nh*ch), make([]float32, nb*nl*nh), make([]float32, agreeReplicaLen(nh, ch)-1), nl, nh, ch, 0, nb*nl)
			}, "agreementRows replica length"},
			{"Eq4 rows reversed", func() {
				agreementRows(make([]float32, nb*nl*nh*ch), make([]float32, nb*nh*ch), make([]float32, nb*nl*nh), make([]float32, agreeReplicaLen(nh, ch)), nl, nh, ch, 2, 1)
			}, "agreementRows rows [2,1)"},
			{"Eq5 short c", func() {
				softmaxRows(ExactMath{}, make([]float32, 16*nh-1), make([]float32, 16*nh), 16, nh)
			}, "out of range"},
			{"Eq5 short b", func() {
				softmaxRows(ExactMath{}, make([]float32, 16*nh), make([]float32, 16*nh-1), 16, nh)
			}, "out of range"},
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
				packedtest.With(t, on, tc.call)
			})
		}
	}
}

// Values the special-case rows of the Eq. 4 and Eq. 5 tables are built
// from: NaNs that differ in payload and in the quiet bit, so a result
// shows which operand it came from, and the float32 extremes. The
// tables never let two different NaNs meet in one operation: x86 then
// returns the first operand's, and which operand is first in the Go
// loop is the compiler's choice (a -race build orders the adds the
// other way round), so there is no payload to hold the packed body to;
// the fuzz targets cover those meetings up to the payload.
var (
	nanA     = math.Float32frombits(0x7fc00abc)
	nanB     = math.Float32frombits(0xffc12345)
	nanQuiet = math.Float32frombits(0x7f800001) // signalling: arithmetic sets the quiet bit
	posInf   = float32(math.Inf(1))
	negInf   = float32(math.Inf(-1))
	negZero  = float32(math.Copysign(0, -1))
	denormal = math.Float32frombits(1)
)

// softmaxSpecialRows overwrites some rows of the nl×nh logits b with
// the cases Eq. 5's packed body must carry exactly as the Go loop does:
// zeros of both signs, denormals, each infinity, NaNs at the head of a
// row (the running maximum then stays NaN) and mid-row (the sum takes
// it up and the whole row follows), a signalling NaN, and
// differences from the maximum that underflow float32 (below −104),
// leave the packed exponential's range (below −700) or overflow the
// subtraction.
func softmaxSpecialRows(b []float32, nl, nh int) {
	at := func(i, j int) *float32 { return &b[i*nh+j%nh] }
	for i := 0; i < nl; i++ {
		switch i % 13 {
		case 1:
			for j := 0; j < nh; j++ {
				*at(i, j) = []float32{0, negZero}[j%2]
			}
		case 2:
			*at(i, 0), *at(i, 1) = negZero, 0
		case 3:
			for j := 0; j < nh; j++ {
				*at(i, j) = float32(j-1) * denormal
			}
		case 4:
			*at(i, 2) = posInf
		case 5:
			*at(i, 1) = negInf
		case 6:
			*at(i, 0) = nanA
		case 7:
			*at(i, 1), *at(i, 5) = nanB, nanB
		case 8:
			*at(i, 3) = nanQuiet
		case 9:
			*at(i, 0), *at(i, 1), *at(i, 2) = 3, -101.5, -150
		case 10:
			*at(i, 0), *at(i, 1), *at(i, 2), *at(i, 3) = 1, -699.5, -700.5, -1e30
		case 11:
			*at(i, 0), *at(i, 1) = 3e38, -3e38
		case 12:
			for j := 0; j < nh; j++ {
				*at(i, j) = negInf
			}
		}
	}
}

// TestSoftmaxRowsPackedBitIdenticalToGoLoop runs Eq. 5 with ExactMath
// on the packed body and on the Go loop over row counts that are and
// are not whole groups of eight and whole tiles, widths with less than
// one, exactly one, more than one and the most vectors per row the
// packed body takes (and one past it), into a separate c and in place.
// c is carved out of sentinel margins and b, when it is only read, out
// of NaN margins.
func TestSoftmaxRowsPackedBitIdenticalToGoLoop(t *testing.T) {
	const sentinel = float32(-12345)
	for _, nh := range []int{1, 3, 8, 10, 16, softmaxMaxH, softmaxMaxH + 1} {
		tile := max(softmaxTile/nh&^7, 8)
		for _, nl := range []int{1, 7, 8, 9, 24, tile - 8, tile, tile + 8, 2*tile + 11} {
			if nl <= 0 {
				continue
			}
			rng := rand.New(rand.NewSource(int64(nh*100000 + nl)))
			b, bOK := guarded(nl*nh, float32(math.NaN()))
			for i := range b {
				b[i] = 6*rng.Float32() - 3
			}
			softmaxSpecialRows(b, nl, nh)
			for _, inPlace := range []bool{false, true} {
				name := fmt.Sprintf("nh=%d nl=%d inPlace=%v", nh, nl, inPlace)
				run := func(on bool) (c []float32, intact func() bool) {
					c, intact = guarded(nl*nh, sentinel)
					src := b
					if inPlace {
						copy(c, b)
						src = c
					}
					packedtest.With(t, on, func() { softmaxRows(ExactMath{}, c, src, nl, nh) })
					return c, intact
				}
				want, _ := run(false)
				got, intact := run(true)
				if at, ok := sameBits(got, want); !ok {
					t.Fatalf("%s: c[%d,%d] = %x, want %x (logit %x)", name, at/nh, at%nh,
						math.Float32bits(got[at]), math.Float32bits(want[at]), math.Float32bits(b[at]))
				}
				if !intact() || !bOK() {
					t.Fatalf("%s: wrote outside an operand", name)
				}
			}
		}
	}
}

// TestSoftmaxScaleZeroSumIsUniform: ExactMath cannot make a row of
// exponentials sum to zero (the maximum's own term is 1), so the
// packed body's sum == 0 branch is driven directly, zeros of both signs
// in rows between ordinary ones: those rows become 1/float32(nh), the
// others their values over their sum.
func TestSoftmaxScaleZeroSumIsUniform(t *testing.T) {
	if !tensor.Packed() {
		t.Skip("this CPU has no packed path")
	}
	for _, nh := range []int{1, 3, 10, 16} {
		out := make([]float32, 16*nh)
		want := make([]float32, len(out))
		rowOf := make([]int32, 8*nh)
		for p := range rowOf {
			rowOf[p] = int32(p / nh)
		}
		for i := 0; i < 16; i++ {
			row, wantRow := out[i*nh:(i+1)*nh], want[i*nh:(i+1)*nh]
			var sum float32
			for j := range row {
				switch i % 3 {
				case 0:
					row[j] = float32(1+j) / 8
				case 1:
					row[j] = 0
				case 2:
					row[j] = []float32{0, negZero}[j%2]
				}
				sum += row[j]
			}
			for j := range row {
				wantRow[j] = float32(1) / float32(nh)
				if i%3 == 0 {
					wantRow[j] = row[j] * (1 / sum)
				}
			}
		}
		softmaxScale8(out, rowOf, nh)
		if at, ok := sameBits(out, want); !ok {
			t.Fatalf("nh=%d: out[%d,%d] = %v, want %v", nh, at/nh, at%nh, out[at], want[at])
		}
	}
}

// TestExpPacked8BitIdenticalToMathExp holds the packed exponential to
// float32(math.Exp(float64(x))) over random bit patterns (every
// exponent, both signs, NaNs and infinities among them), a sweep of its
// whole range and the neighbourhood of every point where the reduction
// steps. Wherever a group of eight holds a value the kernel does not
// take it must stop there, having written nothing at or past the group;
// expInPlace must then give every element the scalar function's bits.
func TestExpPacked8BitIdenticalToMathExp(t *testing.T) {
	if !tensor.PackedFMA() || !expProbed {
		t.Skip("the packed exponential is off on this host")
	}
	n := 1 << 22
	if testing.Short() {
		n = 1 << 18
	}
	rng := rand.New(rand.NewSource(23))
	xs := make([]float32, 0, n+3*2048+1<<17)
	for len(xs) < n {
		xs = append(xs, math.Float32frombits(rng.Uint32()))
	}
	for k := -1024; k < 1024; k++ {
		edge := float32(0.34657359027997264 * float64(k))
		xs = append(xs, math.Nextafter32(edge, -1000), edge, math.Nextafter32(edge, 1000))
	}
	for x := float32(-701); x < 701; x += 1402.0 / (1 << 17) {
		xs = append(xs, x)
	}
	xs = xs[:len(xs)&^7]
	taken := func(x float32) bool { return x >= -700 && x <= 700 }
	for lo := 0; lo < len(xs); {
		stop := lo // the first group from lo the kernel must refuse
		for stop < len(xs) {
			ok := true
			for _, x := range xs[stop : stop+8] {
				ok = ok && taken(x)
			}
			if !ok {
				break
			}
			stop += 8
		}
		end := min(stop+24, len(xs))
		got := append([]float32(nil), xs[lo:end]...)
		if done := expPacked8(got); done != stop-lo {
			t.Fatalf("from %d: expPacked8 did %d elements, want %d", lo, done, stop-lo)
		}
		for i, x := range xs[lo:stop] {
			if want := (ExactMath{}).Exp(x); math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("exp(%v = %#x) = %#x, want %#x", x, math.Float32bits(x), math.Float32bits(got[i]), math.Float32bits(want))
			}
		}
		if at, ok := sameBits(got[stop-lo:], xs[stop:end]); !ok {
			t.Fatalf("from %d: element %d past the stop was written", lo, stop+at)
		}
		lo = stop + 8
	}
	got := append([]float32(nil), xs[:len(xs)-3]...)
	expInPlace(got)
	for i, x := range xs[:len(got)] {
		if want := (ExactMath{}).Exp(x); math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("expInPlace: exp(%v = %#x) = %#x, want %#x", x, math.Float32bits(x), math.Float32bits(got[i]), math.Float32bits(want))
		}
	}
}

// agreementCase is one Eq. 4 problem with the special values the packed
// body must carry exactly as the Go loop does seeded into it: in û, v
// and b each, NaNs of different payloads (as one term of a sum, as all
// of them, as the logit a sum updates), both infinities, both zeros
// and a denormal; û and v are carved out of NaN margins.
type agreementCase struct {
	nb, nl, nh, ch int
	pd, vd, b0     []float32
	intact         func() bool
}

func newAgreementCase(seed int64, nb, nl, nh, ch int) agreementCase {
	rng := rand.New(rand.NewSource(seed))
	nan := float32(math.NaN())
	pd, pdOK := guarded(nb*nl*nh*ch, nan)
	vd, vdOK := guarded(nb*nh*ch, nan)
	b0 := make([]float32, nb*nl*nh)
	for _, xs := range [][]float32{pd, vd, b0} {
		for i := range xs {
			xs[i] = rng.Float32() - 0.5
		}
	}
	u := func(k, i, j, d int) *float32 { return &pd[((k*nl+i%nl)*nh+j%nh)*ch+d%ch] }
	v := func(k, j, d int) *float32 { return &vd[(k*nh+j%nh)*ch+d%ch] }
	for k := 0; k < nb; k++ {
		*u(k, 0, 0, 0) = nanA     // a NaN û, first term of a sum
		*u(k, 1, 1, ch-1) = nanB  // … last term
		for d := 0; d < ch; d++ { // … every term
			*u(k, 2, 2, d) = nanB
		}
		*u(k, 3, 0, 1) = posInf
		*u(k, 3, 1, 2) = negInf
		*u(k, 4, 2, 0), *u(k, 4, 2, 1) = posInf, negInf // Inf − Inf inside a sum
		*u(k, 5, 0, 3), *u(k, 5, 1, 3) = 0, negZero
		*u(k, 6, 1, 0) = denormal
		*u(k, 7, 2, 2) = nanQuiet
		for d := 0; d < ch; d++ { // a sum of −0 terms: +0 + −0 must stay +0
			*u(k, 8, 0, d) = negZero
		}
		if nh > 4 {
			*v(k, 4, 1) = nanB // a NaN v: every low-level capsule's pair with capsule 4
			*v(k, 3, 0), *v(k, 3, 2) = negZero, denormal
		}
		b0[(k*nl+10%nl)*nh] = nanA   // a NaN logit, updated by a finite sum
		b0[(k*nl)*nh] = nanA         // … and by a NaN sum
		b0[(k*nl+8%nl)*nh] = negZero // −0 + +0
	}
	return agreementCase{nb, nl, nh, ch, pd, vd, b0, func() bool { return pdOK() && vdOK() }}
}

// run performs Eq. 4 for rows [lo, hi) on the packed body or the Go
// loop, into logits and replica scratch carved out of sentinel margins.
func (a agreementCase) run(t testing.TB, on bool, lo, hi int) (b []float32, intact func() bool) {
	const sentinel = float32(-12345)
	b, bOK := guarded(len(a.b0), sentinel)
	copy(b, a.b0)
	vt, vtOK := guarded(agreeReplicaLen(a.nh, a.ch), sentinel)
	packedtest.With(t, on, func() { agreementRows(a.pd, a.vd, b, vt, a.nl, a.nh, a.ch, lo, hi) })
	return b, func() bool { return bOK() && vtOK() && a.intact() }
}

// TestAgreementRowsPackedBitIdenticalToGoLoop runs per-sample Eq. 4 on
// the packed body and on the Go loop over widths of one to six vector
// steps, capsule counts whose pairs wrap the groups of eight every
// possible way, and row ranges that are whole batches, whole samples,
// the two halves a pair of workers takes, and ranges that start and end
// mid-sample, in the group tail, or inside a single group. The whole
// batch is also checked against agreementRange called the way the
// routing loop called it before the rows were chunked. Logits outside
// the range must keep their bits.
func TestAgreementRowsPackedBitIdenticalToGoLoop(t *testing.T) {
	const nb, nl = 3, 19
	ranges := [][2]int{{0, nb * nl}, {0, nl}, {nl, 2 * nl}, {0, 29}, {29, nb * nl}, {5, 30}, {nl - 1, nl + 1}, {17, 19}, {7, 8}, {2, 2}}
	for _, nh := range []int{1, 3, 8, 10, 16} {
		for _, ch := range []int{4, 8, 16, 24} {
			a := newAgreementCase(int64(nh*100+ch), nb, nl, nh, ch)
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				name := fmt.Sprintf("nh=%d ch=%d rows [%d,%d)", nh, ch, lo, hi)
				want, _ := a.run(t, false, lo, hi)
				got, intact := a.run(t, true, lo, hi)
				if at, ok := sameBits(got, want); !ok {
					t.Fatalf("%s: b[%d,%d] = %x, want %x", name, at/nh, at%nh, math.Float32bits(got[at]), math.Float32bits(want[at]))
				}
				if !intact() {
					t.Fatalf("%s: wrote outside an operand", name)
				}
				if at, ok := sameBits(got[:lo*nh], a.b0[:lo*nh]); !ok {
					t.Fatalf("%s: b[%d] below the range changed", name, at)
				}
				if at, ok := sameBits(got[hi*nh:], a.b0[hi*nh:]); !ok {
					t.Fatalf("%s: b[%d] above the range changed", name, hi*nh+at)
				}
				if lo == 0 && hi == nb*nl {
					whole := append([]float32(nil), a.b0...)
					agreementRange(a.pd, a.vd, whole, nl*nh, nl, nh, ch, 0, nb, 0, nh)
					if at, ok := sameBits(got, whole); !ok {
						t.Fatalf("%s: b[%d] = %x, agreementRange over the batch gives %x", name, at, math.Float32bits(got[at]), math.Float32bits(whole[at]))
					}
				}
			}
		}
	}
}
