package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pimcapsnet/internal/packedtest"
	"pimcapsnet/internal/tensor"
)

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

// TestConv2DIntoPackedBitIdenticalToGoTile runs the packed path over
// every edge it has — channel groups and position tiles that do and do
// not divide by 8, reductions of one tap, of one block less one, of
// exactly one block, of one block plus one, and of 81 blocks — and
// demands the bits of the Go tile. Every operand of the packed run is
// carved out of a larger buffer: NaN around the sources, so a read
// past an end that reached a stored sum would show in the bits, and a
// sentinel around dst and cols, which must survive.
func TestConv2DIntoPackedBitIdenticalToGoTile(t *testing.T) {
	nan := float32(math.NaN())
	const sentinel = float32(-12345)
	rng := rand.New(rand.NewSource(16))
	fill := func(xs []float32) {
		for i := range xs {
			xs[i] = rng.Float32() - 0.5
		}
	}
	outs := []struct{ oh, ow int }{{1, 1}, {1, 7}, {2, 4}, {3, 3}, {6, 6}, {11, 11}, {20, 20}}
	kernels := []struct{ cin, k int }{{1, 1}, {1, 5}, {255, 1}, {256, 1}, {257, 1}, {256, 9}}
	for _, cout := range []int{1, 7, 8, 9, 16, 256} {
		for _, o := range outs {
			for _, kr := range kernels {
				n, kk := o.oh*o.ow, kr.cin*kr.k*kr.k
				if kk > 1000 && (cout > 9 || cout == 8 || (n != 7 && n != 36)) {
					continue // mn1's 81-block reduction: the channel and position edges only
				}
				for _, stride := range []int{1, 2} {
					for _, withBias := range []bool{false, true} {
						name := fmt.Sprintf("Cout=%d n=%d kk=%d stride=%d bias=%v", cout, n, kk, stride, withBias)
						spec := tensor.ConvSpec{Cin: kr.cin, Cout: cout, K: kr.k, Stride: stride}
						h, w := (o.oh-1)*stride+kr.k, (o.ow-1)*stride+kr.k
						in, inOK := guarded(kr.cin*h*w, nan)
						wt, wtOK := guarded(cout*kk, nan)
						fill(in)
						fill(wt)
						var bias []float32
						biasOK := func() bool { return true }
						if withBias {
							bias, biasOK = guarded(cout, nan)
							fill(bias)
						}
						want := make([]float32, cout*n)
						packedtest.With(t, false, func() {
							tensor.Conv2DInto(want, make([]float32, n*kk), in, wt, bias, spec, h, w)
						})

						got, gotOK := guarded(cout*n, sentinel)
						cols, colsOK := guarded(n*kk, sentinel)
						packedtest.With(t, true, func() {
							tensor.Conv2DInto(got, cols, in, wt, bias, spec, h, w)
						})
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%s: out[%d] = %x, want %x", name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}
						if !inOK() || !wtOK() || !biasOK() || !gotOK() || !colsOK() {
							t.Fatalf("%s: wrote outside an operand (in %v, weights %v, bias %v, dst %v, cols %v intact)",
								name, inOK(), wtOK(), biasOK(), gotOK(), colsOK())
						}
					}
				}
			}
		}
	}
}

// TestConv2DIntoNonFiniteStaysInItsOutput puts one NaN and one +Inf
// weight, and one −Inf input, into a shape with masked lanes and an
// edge channel: each must poison exactly the outputs it poisons on the
// Go tile, with the same bits, and no neighbouring lane.
func TestConv2DIntoNonFiniteStaysInItsOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	spec := tensor.ConvSpec{Cin: 3, Cout: 9, K: 3, Stride: 1}
	const h, w = 6, 7 // n = 4·5 = 20: two full tiles and four masked-in lanes
	oh, ow := spec.OutSize(h, w)
	n, kk := oh*ow, spec.Cin*spec.K*spec.K
	in := make([]float32, spec.Cin*h*w)
	wt := make([]float32, spec.Cout*kk)
	for _, xs := range [][]float32{in, wt} {
		for i := range xs {
			xs[i] = rng.Float32() - 0.5
		}
	}
	wt[2*kk+5] = float32(math.NaN())
	wt[8*kk+kk-1] = float32(math.Inf(1))
	in[1*h*w+2*w+3] = float32(math.Inf(-1))
	run := func(on bool) []float32 {
		out := make([]float32, spec.Cout*n)
		packedtest.With(t, on, func() {
			tensor.Conv2DInto(out, make([]float32, n*kk), in, wt, nil, spec, h, w)
		})
		return out
	}
	want, got := run(false), run(true)
	finite := 0
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("out[%d] = %x, want %x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
		if v := float64(got[i]); !math.IsNaN(v) && !math.IsInf(v, 0) {
			finite++
		}
	}
	// Channels 2 and 8 are poisoned everywhere; elsewhere only the 3×3
	// window positions that see the −Inf input are.
	if wantFinite := (spec.Cout - 2) * (n - 9); finite != wantFinite {
		t.Fatalf("%d finite outputs, want %d", finite, wantFinite)
	}
}

// TestConv2DIntoRejectsBadLengths: every operand's length is checked
// in Go, with the message it always had, before either path touches
// memory.
func TestConv2DIntoRejectsBadLengths(t *testing.T) {
	spec := tensor.ConvSpec{Cin: 2, Cout: 8, K: 3, Stride: 1}
	const h, w = 5, 5
	n, kk := 9, 18
	for _, on := range []bool{false, true} {
		for _, tc := range []struct {
			name                            string
			dst, cols, input, weights, bias int
			want                            string
		}{
			{"short dst", 8*n - 1, n * kk, 2 * h * w, 8 * kk, 8, "Conv2DInto dst length"},
			{"short cols", 8 * n, n*kk - 1, 2 * h * w, 8 * kk, 8, "Im2ColInto cols length"},
			{"long cols", 8 * n, n*kk + 1, 2 * h * w, 8 * kk, 8, "Im2ColInto cols length"},
			{"short input", 8 * n, n * kk, 2*h*w - 1, 8 * kk, 8, "Im2ColInto input length"},
			{"short weights", 8 * n, n * kk, 2 * h * w, 8*kk - 1, 8, "Conv2DInto weights length"},
			{"short bias", 8 * n, n * kk, 2 * h * w, 8 * kk, 7, "Conv2DInto bias length"},
		} {
			t.Run(fmt.Sprintf("packed=%v/%s", on, tc.name), func(t *testing.T) {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
						t.Fatalf("panic %q, want one naming %q", msg, tc.want)
					}
				}()
				packedtest.With(t, on, func() {
					tensor.Conv2DInto(make([]float32, tc.dst), make([]float32, tc.cols), make([]float32, tc.input),
						make([]float32, tc.weights), make([]float32, tc.bias), spec, h, w)
				})
			})
		}
	}
}
