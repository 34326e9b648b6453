package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestConv2DIntoTileEdgesBitIdentical walks Conv2DInto's register tile
// over every edge it has — output channels and output positions that
// do and do not divide the tile, reductions shorter than one step —
// and demands the bits of naiveConv, whose every output sums j
// ascending from +0 and adds the bias last. A kernel that reorders or
// splits a sum fails here even when it stays within any tolerance.
func TestConv2DIntoTileEdgesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fill := func(xs []float32) {
		for i := range xs {
			xs[i] = rng.Float32() - 0.5
		}
	}
	outs := []struct{ oh, ow int }{{1, 1}, {1, 2}, {3, 1}, {6, 6}, {11, 11}} // n = 1, 2, 3, 36, 121
	kernels := []struct{ cin, k int }{{1, 1}, {1, 3}, {9, 3}}                // kk = 1, 9, 81
	for _, cout := range []int{1, 2, 3, 4, 5, 7, 8} {
		for _, o := range outs {
			for _, kr := range kernels {
				for _, stride := range []int{1, 2} {
					for _, withBias := range []bool{false, true} {
						spec := ConvSpec{Cin: kr.cin, Cout: cout, K: kr.k, Stride: stride}
						h, w := (o.oh-1)*stride+kr.k, (o.ow-1)*stride+kr.k
						in := New(kr.cin, h, w)
						wt := New(cout, kr.cin*kr.k*kr.k)
						fill(in.Data())
						fill(wt.Data())
						var bias []float32
						if withBias {
							bias = make([]float32, cout)
							fill(bias)
						}
						want := naiveConv(in, wt, bias, spec).Data()
						got := make([]float32, len(want))
						cols := make([]float32, ConvColsLen(spec, h, w, 1))
						Conv2DInto(got, cols, in.Data(), wt.Data(), bias, spec, h, w, 1)
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("Cout=%d n=%d kk=%d stride=%d bias=%v: out[%d] = %x, want %x",
									cout, o.oh*o.ow, kr.cin*kr.k*kr.k, stride, withBias, i,
									math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestLowerGatherMatchesIm2Col holds the packed lowering to the Go
// path's row-major Im2ColInto, read transposed, bit for bit: over K
// 1–9 and stride 1–3, 1–3 images, inputs the kernel fits exactly and
// ones a row taller and one or two columns wider (which strides 2 and 3
// leave partly unread), and every block of the reduction. The gather
// moves floats and computes nothing, so any bit pattern, NaN payloads
// included, must come through unchanged.
func TestLowerGatherMatchesIm2Col(t *testing.T) {
	if !Packed() {
		t.Skip("this CPU has no packed lowering")
	}
	rng := rand.New(rand.NewSource(43))
	for k := 1; k <= 9; k++ {
		for stride := 1; stride <= 3; stride++ {
			for nb := 1; nb <= 3; nb++ {
				for _, extra := range []int{0, 1, 2} {
					spec := ConvSpec{Cin: 1 + 300/(k*k), Cout: 1, K: k, Stride: stride}
					h, w := k+2*stride+extra%2, k+5*stride+extra
					oh, ow := spec.OutSize(h, w)
					one, kk, imgLen := oh*ow, spec.Cin*k*k, spec.Cin*h*w
					n := nb * one
					in := make([]float32, nb*imgLen)
					for i := range in {
						in[i] = math.Float32frombits(rng.Uint32())
					}
					want := make([]float32, nb*one*kk) // image-major, row-major per image
					for img := 0; img < nb; img++ {
						Im2ColInto(want[img*one*kk:(img+1)*one*kk], in[img*imgLen:(img+1)*imgLen], spec, h, w)
					}
					pos := make([]float32, posTableLen(n))
					fillPos(pos, spec, h, w, nb)
					var taps [convKC]int32
					got := make([]float32, convKC*n)
					for j0 := 0; j0 < kk; j0 += convKC {
						kc := min(convKC, kk-j0)
						lowerBlock(got[:kc*n], in, pos, taps[:kc], spec, h, w, n, j0)
						for j := j0; j < j0+kc; j++ {
							for r := 0; r < n; r++ {
								g, x := got[(j-j0)*n+r], want[r*kk+j]
								if math.Float32bits(g) != math.Float32bits(x) {
									t.Fatalf("K=%d stride=%d nb=%d %dx%d: tap %d position %d = %x, want %x",
										k, stride, nb, h, w, j, r, math.Float32bits(g), math.Float32bits(x))
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkConv2DInto times the one dense kernel on the six front-end
// shapes of the repository benchmark's models (bench/workloads.go) and
// reports GMAC/s, so a run reads directly against this core's
// ceilings: the benchmark's scalar host.fma_gmacs and the packed
// BenchmarkPackedMulAddPeak of the body that ran (/avx512 where the CPU
// has it, /avx2 otherwise). The /nbN rows run the batches the
// offline_mn1 and serve_sat workloads hand PrimaryCaps, as one product;
// each /lower row times the packed path's lowering of one image alone
// (every block of lowerBlock) and reports ns per lowered float.
func BenchmarkConv2DInto(b *testing.B) {
	shapes := []struct {
		name string
		spec ConvSpec
		h, w int
	}{
		{"mn1_conv", ConvSpec{Cin: 1, Cout: 256, K: 9, Stride: 1}, 28, 28},
		{"mn1_primary", ConvSpec{Cin: 256, Cout: 256, K: 9, Stride: 2}, 20, 20},
		{"cv288_primary", ConvSpec{Cin: 64, Cout: 64, K: 9, Stride: 2}, 20, 20},
		{"rp3872_primary", ConvSpec{Cin: 8, Cout: 256, K: 3, Stride: 2}, 24, 24},
		{"cv288_conv", ConvSpec{Cin: 1, Cout: 64, K: 9, Stride: 1}, 28, 28},
		{"rp3872_conv", ConvSpec{Cin: 1, Cout: 8, K: 5, Stride: 1}, 28, 28},
	}
	batches := map[string]int{"mn1_primary": 2, "rp3872_primary": 8}
	for _, sh := range shapes {
		oh, ow := sh.spec.OutSize(sh.h, sh.w)
		kk := sh.spec.Cin * sh.spec.K * sh.spec.K
		operands := func(nb int) (in, wt, bias, dst, cols []float32) {
			rng := rand.New(rand.NewSource(5))
			in = make([]float32, nb*sh.spec.Cin*sh.h*sh.w)
			wt = make([]float32, sh.spec.Cout*kk)
			bias = make([]float32, sh.spec.Cout)
			for _, xs := range [][]float32{in, wt, bias} {
				for i := range xs {
					xs[i] = rng.Float32() - 0.5
				}
			}
			return in, wt, bias, make([]float32, sh.spec.Cout*nb*oh*ow), make([]float32, ConvColsLen(sh.spec, sh.h, sh.w, nb))
		}
		conv := func(nb int) func(b *testing.B) {
			return func(b *testing.B) {
				in, wt, bias, dst, cols := operands(nb)
				run := func() { Conv2DInto(dst, cols, in, wt, bias, sh.spec, sh.h, sh.w, nb) }
				if a := testing.AllocsPerRun(1, run); a != 0 {
					b.Fatalf("Conv2DInto allocates %v times per call, want 0", a)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				macs := float64(sh.spec.Cout) * float64(nb*oh*ow) * float64(kk)
				b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			}
		}
		b.Run(sh.name, conv(1))
		if nb := batches[sh.name]; nb > 0 {
			b.Run(fmt.Sprintf("%s/nb%d", sh.name, nb), conv(nb))
		}
		b.Run(sh.name+"/lower", func(b *testing.B) {
			if !Packed() {
				b.Skip("this CPU has no packed lowering")
			}
			in, _, _, _, cols := operands(1)
			n := oh * ow
			pos := cols[:posTableLen(n)]
			block := cols[len(pos):]
			var taps [convKC]int32
			fillPos(pos, sh.spec, sh.h, sh.w, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j0 := 0; j0 < kk; j0 += convKC {
					kc := min(convKC, kk-j0)
					lowerBlock(block[:kc*n], in, pos, taps[:kc], sh.spec, sh.h, sh.w, n, j0)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*kk), "ns/float")
		})
	}
}
