package tensor

import (
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
						cols := make([]float32, o.oh*o.ow*kr.cin*kr.k*kr.k)
						Conv2DInto(got, cols, in.Data(), wt.Data(), bias, spec, h, w)
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

// BenchmarkConv2DInto times the one dense kernel on the six front-end
// shapes of the repository benchmark's models (bench/workloads.go) and
// reports GMAC/s, so a run reads directly against this core's
// ceilings: the benchmark's scalar host.fma_gmacs and the packed
// BenchmarkPackedMulAddPeak of the body that ran (/avx512 where the CPU
// has it, /avx2 otherwise).
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
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			oh, ow := sh.spec.OutSize(sh.h, sh.w)
			n, kk := oh*ow, sh.spec.Cin*sh.spec.K*sh.spec.K
			in := make([]float32, sh.spec.Cin*sh.h*sh.w)
			wt := make([]float32, sh.spec.Cout*kk)
			bias := make([]float32, sh.spec.Cout)
			for _, xs := range [][]float32{in, wt, bias} {
				for i := range xs {
					xs[i] = rng.Float32() - 0.5
				}
			}
			dst := make([]float32, sh.spec.Cout*n)
			cols := make([]float32, n*kk)
			run := func() { Conv2DInto(dst, cols, in, wt, bias, sh.spec, sh.h, sh.w) }
			if a := testing.AllocsPerRun(1, run); a != 0 {
				b.Fatalf("Conv2DInto allocates %v times per call, want 0", a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			macs := float64(sh.spec.Cout) * float64(n) * float64(kk)
			b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}
