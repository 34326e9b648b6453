package tensor_test

import (
	"encoding/binary"
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

// TestConv2DIntoPackedBitIdenticalToGoTile runs the packed path, at
// every level this CPU has, over every edge it has — channel groups and
// position tiles that do and do not divide by 8, position counts on
// both sides of a 32-wide tile and of two, reductions of one tap, of
// one block less one, of exactly one block, of one block plus one, and
// of 81 blocks — and demands the bits of the Go tile. Every operand of
// the packed run is carved out of a larger buffer: NaN around the
// sources, so a read past an end that reached a stored sum would show
// in the bits, and a sentinel around dst and cols, which must survive.
func TestConv2DIntoPackedBitIdenticalToGoTile(t *testing.T) {
	for _, l := range packedtest.PackedLevels() {
		t.Run(l.String(), func(t *testing.T) { conv2DIntoBitIdenticalAt(t, l) })
	}
}

func conv2DIntoBitIdenticalAt(t *testing.T, l packedtest.Level) {
	nan := float32(math.NaN())
	const sentinel = float32(-12345)
	rng := rand.New(rand.NewSource(16))
	fill := func(xs []float32) {
		for i := range xs {
			xs[i] = rng.Float32() - 0.5
		}
	}
	outs := []struct{ oh, ow int }{{1, 1}, {1, 7}, {2, 4}, {3, 3}, {1, 31}, {4, 8}, {3, 11}, {6, 6},
		{7, 9}, {8, 8}, {5, 13}, {11, 11}, {20, 20}} // n = 1, 7, 8, 9, 31, 32, 33, 36, 63, 64, 65, 121, 400
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
						packedtest.At(t, packedtest.Off, func() {
							tensor.Conv2DInto(want, make([]float32, tensor.ConvColsLen(spec, h, w, 1)), in, wt, bias, spec, h, w, 1)
						})

						got, gotOK := guarded(cout*n, sentinel)
						cols, colsOK := guarded(tensor.ConvColsLen(spec, h, w, 1), sentinel)
						packedtest.At(t, l, func() {
							tensor.Conv2DInto(got, cols, in, wt, bias, spec, h, w, 1)
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

// TestPackedtestLevelsAreTheDetect pins each level packedtest names
// and reads back the predicates the kernels dispatch on: packedtest
// mirrors the detect's values, and a level that drifted from them
// would hold the wrong body to the tests.
func TestPackedtestLevelsAreTheDetect(t *testing.T) {
	for _, l := range append([]packedtest.Level{packedtest.Off}, packedtest.PackedLevels()...) {
		t.Run(l.String(), func(t *testing.T) {
			packedtest.At(t, l, func() {
				got := [3]bool{tensor.Packed(), tensor.PackedFMA(), tensor.Packed512()}
				want := [3]bool{l >= packedtest.AVX2, l >= packedtest.FMA, l >= packedtest.AVX512}
				if got != want {
					t.Fatalf("Packed, PackedFMA, packed512 = %v, want %v", got, want)
				}
			})
		})
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
			tensor.Conv2DInto(out, make([]float32, tensor.ConvColsLen(spec, h, w, 1)), in, wt, nil, spec, h, w, 1)
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
// in Go, with a message naming it, before either path touches memory.
// cols is held to ConvColsLen, the one length both paths accept.
func TestConv2DIntoRejectsBadLengths(t *testing.T) {
	spec := tensor.ConvSpec{Cin: 2, Cout: 8, K: 3, Stride: 1}
	const h, w = 5, 5
	n, kk := 9, 18
	cols := tensor.ConvColsLen(spec, h, w, 1)
	for _, on := range []bool{false, true} {
		for _, tc := range []struct {
			name                            string
			dst, cols, input, weights, bias int
			want                            string
		}{
			{"short dst", 8*n - 1, cols, 2 * h * w, 8 * kk, 8, "Conv2DInto dst length"},
			{"short cols", 8 * n, cols - 1, 2 * h * w, 8 * kk, 8, "Conv2DInto cols length"},
			{"long cols", 8 * n, cols + 1, 2 * h * w, 8 * kk, 8, "Conv2DInto cols length"},
			{"short input", 8 * n, cols, 2*h*w - 1, 8 * kk, 8, "Conv2DInto input length"},
			{"short weights", 8 * n, cols, 2 * h * w, 8*kk - 1, 8, "Conv2DInto weights length"},
			{"short bias", 8 * n, cols, 2 * h * w, 8 * kk, 7, "Conv2DInto bias length"},
		} {
			t.Run(fmt.Sprintf("packed=%v/%s", on, tc.name), func(t *testing.T) {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
						t.Fatalf("panic %q, want one naming %q", msg, tc.want)
					}
				}()
				packedtest.With(t, on, func() {
					tensor.Conv2DInto(make([]float32, tc.dst), make([]float32, tc.cols), make([]float32, tc.input),
						make([]float32, tc.weights), make([]float32, tc.bias), spec, h, w, 1)
				})
			})
		}
	}
}

// FuzzConv2DIntoPacked is the differential target of the dense
// kernel's packed bodies (convTile8x32, convTile8x8, convTile1x8 and the
// lowerGather8 lowering): for operands of any bit pattern — data is
// read as little-endian float32 bits and cycled over input, weights and
// bias, so NaN payloads, ±0, ±Inf and denormals are all reachable —
// Cout 1–40, oh×ow up to 12×12 (n crosses 8 and 32), kk = Cin·K·K up
// to one ConvKC block and 32 taps past it, stride 1 or 2, and 1–3
// images in one product, every level this CPU has must give the bits
// of the Go tile run one image at a time, and leave the sentinel
// margins around dst and cols alone. Where two NaNs meet, x86 keeps the
// first operand's payload and the Go tile does not fix which operand
// that is, so a NaN of any payload matches a NaN.
func FuzzConv2DIntoPacked(f *testing.F) {
	f.Fuzz(func(t *testing.T, cout, oh, ow, k uint8, cin uint16, stride2, withBias bool, batch uint8, data []byte) {
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if len(vals) == 0 {
			t.Skip("no operands")
		}
		spec := tensor.ConvSpec{Cout: 1 + int(cout)%40, K: 1 + int(k)%3, Stride: 1}
		spec.Cin = 1 + int(cin)%((tensor.ConvKC+32)/(spec.K*spec.K))
		if stride2 {
			spec.Stride = 2
		}
		nb := 1 + int(batch)%3
		outH, outW := 1+int(oh)%12, 1+int(ow)%12
		h, w := (outH-1)*spec.Stride+spec.K, (outW-1)*spec.Stride+spec.K
		n, kk := outH*outW, spec.Cin*spec.K*spec.K
		next := 0
		fill := func(xs []float32) {
			for i := range xs {
				xs[i] = vals[next%len(vals)]
				next++
			}
		}
		in := make([]float32, nb*spec.Cin*h*w)
		wt := make([]float32, spec.Cout*kk)
		fill(in)
		fill(wt)
		var bias []float32
		if withBias {
			bias = make([]float32, spec.Cout)
			fill(bias)
		}
		want := singles(t, packedtest.Off, in, wt, bias, spec, h, w, nb)
		for _, l := range packedtest.PackedLevels() {
			if l > packedtest.Detected() {
				break
			}
			got, gotOK := guarded(len(want), -12345)
			cols, colsOK := guarded(tensor.ConvColsLen(spec, h, w, nb), -12345)
			packedtest.At(t, l, func() { tensor.Conv2DInto(got, cols, in, wt, bias, spec, h, w, nb) })
			for i := range want {
				g, x := got[i], want[i]
				if math.Float32bits(g) != math.Float32bits(x) && !(g != g && x != x) {
					t.Fatalf("%v: Cout=%d nb=%d n=%d kk=%d stride=%d: out[%d] = %x, want %x",
						l, spec.Cout, nb, n, kk, spec.Stride, i, math.Float32bits(g), math.Float32bits(x))
				}
			}
			if !gotOK() || !colsOK() {
				t.Fatalf("%v: Cout=%d nb=%d n=%d kk=%d stride=%d: wrote outside dst (%v) or cols (%v)",
					l, spec.Cout, nb, n, kk, spec.Stride, gotOK(), colsOK())
			}
		}
	})
}

// singles runs Conv2DInto at level l on each of the nb images of in
// alone and lays the results out as one nb-image call's dst: image i's
// output channel c at [c·nb·n + i·n :][:n].
func singles(t *testing.T, l packedtest.Level, in, wt, bias []float32, spec tensor.ConvSpec, h, w, nb int) []float32 {
	t.Helper()
	oh, ow := spec.OutSize(h, w)
	n, imgLen := oh*ow, spec.Cin*h*w
	out := make([]float32, spec.Cout*nb*n)
	one := make([]float32, spec.Cout*n)
	cols := make([]float32, tensor.ConvColsLen(spec, h, w, 1))
	for img := 0; img < nb; img++ {
		packedtest.At(t, l, func() {
			tensor.Conv2DInto(one, cols, in[img*imgLen:(img+1)*imgLen], wt, bias, spec, h, w, 1)
		})
		for c := 0; c < spec.Cout; c++ {
			copy(out[c*nb*n+img*n:][:n], one[c*n:(c+1)*n])
		}
	}
	return out
}

// TestConv2DIntoBatchBitIdentical concatenates 1–9 images into one
// product over the tile-edge table — channel counts on both sides of a
// group of 8, positions that do and do not fill a tile (so the
// batch's n crosses tiles one image does not), reductions of one tap,
// of a few, and of one ConvKC block and a few more — at every level,
// Off included, and demands the bits of the images run one at a time.
// Every output is still its own sum over j from +0, so how many
// images share the product changes nothing.
func TestConv2DIntoBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	outs := []struct{ oh, ow int }{{1, 1}, {1, 2}, {3, 1}, {6, 6}, {11, 11}} // n = 1, 2, 3, 36, 121
	kernels := []struct{ cin, k int }{{1, 1}, {1, 3}, {9, 3}, {29, 3}}       // kk = 1, 9, 81, 261
	for _, l := range append([]packedtest.Level{packedtest.Off}, packedtest.PackedLevels()...) {
		t.Run(l.String(), func(t *testing.T) {
			if l > packedtest.Detected() {
				t.Skipf("this CPU has no %v path", l)
			}
			for _, cout := range []int{1, 3, 8, 9} {
				for _, o := range outs {
					for _, kr := range kernels {
						for _, stride := range []int{1, 2} {
							spec := tensor.ConvSpec{Cin: kr.cin, Cout: cout, K: kr.k, Stride: stride}
							h, w := (o.oh-1)*stride+kr.k, (o.ow-1)*stride+kr.k
							wt := make([]float32, cout*kr.cin*kr.k*kr.k)
							bias := make([]float32, cout)
							in := make([]float32, 9*kr.cin*h*w)
							for _, xs := range [][]float32{wt, bias, in} {
								for i := range xs {
									xs[i] = rng.Float32() - 0.5
								}
							}
							for nb := 1; nb <= 9; nb++ {
								batch := in[:nb*kr.cin*h*w]
								want := singles(t, l, batch, wt, bias, spec, h, w, nb)
								got := make([]float32, len(want))
								cols := make([]float32, tensor.ConvColsLen(spec, h, w, nb))
								packedtest.At(t, l, func() { tensor.Conv2DInto(got, cols, batch, wt, bias, spec, h, w, nb) })
								for i := range want {
									if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
										t.Fatalf("Cout=%d n=%d kk=%d stride=%d nb=%d: out[%d] = %x, want %x",
											cout, o.oh*o.ow, kr.cin*kr.k*kr.k, stride, nb, i,
											math.Float32bits(got[i]), math.Float32bits(want[i]))
									}
								}
							}
						}
					}
				}
			}
		})
	}
}
