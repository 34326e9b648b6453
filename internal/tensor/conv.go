package tensor

import (
	"fmt"
	"math"
)

// ConvSpec describes a 2-D convolution: Cin input channels convolved
// with Cout filters of size K×K at the given stride (no padding, which
// matches the CapsNet-MNIST architecture of Sabour et al.).
type ConvSpec struct {
	Cin, Cout int
	K         int
	Stride    int
}

// OutSize returns the output spatial size for an h×w input.
func (s ConvSpec) OutSize(h, w int) (oh, ow int) {
	oh = (h-s.K)/s.Stride + 1
	ow = (w-s.K)/s.Stride + 1
	return oh, ow
}

// Validate reports an error if the spec is not executable.
func (s ConvSpec) Validate() error {
	switch {
	case s.Cin <= 0 || s.Cout <= 0:
		return fmt.Errorf("conv: channels must be positive (Cin=%d Cout=%d)", s.Cin, s.Cout)
	case s.K <= 0:
		return fmt.Errorf("conv: kernel size must be positive (K=%d)", s.K)
	case s.Stride <= 0:
		return fmt.Errorf("conv: stride must be positive (Stride=%d)", s.Stride)
	}
	return nil
}

// Im2ColInto lowers a flattened Cin×h×w input into cols, which must
// have length (oh*ow)·(Cin·K·K). It is the allocation-free kernel
// behind Im2Col: callers on the hot path pass an arena-carved cols
// buffer and reuse it across samples.
//
//pimcaps:hotpath
func Im2ColInto(cols, input []float32, spec ConvSpec, h, w int) {
	cin := spec.Cin
	if len(input) != cin*h*w {
		panic(fmt.Sprintf("tensor: Im2ColInto input length %d, want %d×%d×%d", len(input), cin, h, w))
	}
	oh, ow := spec.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2ColInto kernel %d does not fit %dx%d input", spec.K, h, w))
	}
	if len(cols) != oh*ow*cin*spec.K*spec.K {
		panic(fmt.Sprintf("tensor: Im2ColInto cols length %d, want %d", len(cols), oh*ow*cin*spec.K*spec.K))
	}
	row := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			base := row * cin * spec.K * spec.K
			p := 0
			for c := 0; c < cin; c++ {
				chOff := c * h * w
				for ky := 0; ky < spec.K; ky++ {
					srcOff := chOff + (oy*spec.Stride+ky)*w + ox*spec.Stride
					copy(cols[base+p:base+p+spec.K], input[srcOff:srcOff+spec.K])
					p += spec.K
				}
			}
			row++
		}
	}
}

// posTableLen is how many floats of cols the packed lowering's
// position table takes for n positions: n rounded up to 16, so the
// gather's 8-lane offset loads stay inside it and the block after it
// starts on a 64-byte line.
func posTableLen(n int) int { return (n + 15) &^ 15 }

// ConvColsLen is the length of Conv2DInto's cols scratch for nb images
// of h×w: room for the larger of the Go path's row-major lowering of
// one image, (oh·ow)·(Cin·K·K), and the packed path's position table
// plus one convKC block of the whole batch's transposed lowering. The
// spec must fit the input.
func ConvColsLen(spec ConvSpec, h, w, nb int) int {
	oh, ow := spec.OutSize(h, w)
	n, kk := oh*ow, spec.Cin*spec.K*spec.K
	return max(n*kk, posTableLen(nb*n)+min(kk, convKC)*nb*n)
}

// lowerBlock writes rows [j0, j0+len(taps)) of the transposed lowered
// matrix of a batch's n output positions into cols: cols[(j−j0)·n + r]
// for position r, image-major, so consecutive floats are consecutive
// output positions — the lanes of the packed micro-kernels. A row is
// one kernel tap (c, ky, kx) at every position of the batch; taps is
// scratch for the block's tap offsets. The packed body lowerGather8
// reads input[tap + pos[r]] from the table fillPos wrote, one
// VGATHERDPS per 8 positions: on the stride-2 PrimaryCaps shapes about
// a quarter of the time of the scalar Go loop it replaced (0.35–0.5
// against 1.3–1.9 ns per lowered float, one core of the 2-vCPU
// Sapphire Rapids dev host).
//
//pimcaps:hotpath
func lowerBlock(cols, input, pos []float32, taps []int32, spec ConvSpec, h, w, n, j0 int) {
	k, hw := spec.K, h*w
	c, ky, kx := j0/(k*k), j0/k%k, j0%k
	for t := range taps {
		taps[t] = int32(c*hw + ky*w + kx)
		if kx++; kx == k {
			kx = 0
			if ky++; ky == k {
				ky = 0
				c++
			}
		}
	}
	lowerGather8(cols, input, pos, taps, n)
}

// fillPos writes the packed lowering's position table into pos: for
// output position (img, oy, ox) of nb images, the offset of its
// window's top-left tap from the start of the batch's input, as int32
// bits, then zeros up to posTableLen. The offsets must fit an int32.
//
//pimcaps:hotpath
func fillPos(pos []float32, spec ConvSpec, h, w, nb int) {
	oh, ow := spec.OutSize(h, w)
	r := 0
	for img := 0; img < nb; img++ {
		for oy := 0; oy < oh; oy++ {
			base := img*spec.Cin*h*w + oy*spec.Stride*w
			for ox := 0; ox < ow; ox++ {
				pos[r] = math.Float32frombits(uint32(base + ox*spec.Stride))
				r++
			}
		}
	}
	for ; r < len(pos); r++ {
		pos[r] = 0
	}
}

// Im2Col lowers input (Cin×H×W) into a matrix of shape
// (oh*ow) × (Cin*K*K) so convolution becomes a matrix multiply.
func Im2Col(input *Tensor, spec ConvSpec) *Tensor {
	if input.Rank() != 3 {
		panic("tensor: Im2Col requires a rank-3 (C,H,W) input")
	}
	cin, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	if cin != spec.Cin {
		panic(fmt.Sprintf("tensor: Im2Col input has %d channels, spec expects %d", cin, spec.Cin))
	}
	oh, ow := spec.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col kernel %d does not fit %dx%d input", spec.K, h, w))
	}
	cols := New(oh*ow, cin*spec.K*spec.K)
	Im2ColInto(cols.data, input.data, spec, h, w)
	return cols
}

// Conv2DInto convolves nb flattened Cin×h×w images, stored one after
// another in input, with weights (Cout·(Cin·K·K), row-major) and
// per-output-channel bias. The images' output positions are
// concatenated into one product of n = nb·oh·ow columns, so dst is
// Cout × n: image i's output channel c is dst[c·n + i·oh·ow :][:oh·ow],
// and at nb = 1 dst is the Cout×oh×ow result. cols is the lowering
// scratch, length ConvColsLen(spec, h, w, nb). Every element of dst is
// overwritten.
//
// The product weights·colsᵀ is walked in register tiles: 8 output
// channels × 32 or 8 output positions by the packed micro-kernels
// where the CPU has them (convPacked), 2 × 3 in Go otherwise, or for
// an input too long for the packed lowering's int32 offsets (Im2ColInto
// and convTiled, one image at a time). Tiling only changes which outputs are computed
// together: every output is still its own sum over j ascending from
// +0, one rounded multiply and one rounded add per term, with the bias
// added last, so the result does not depend on the tile shape, on
// where an output falls in a tile, on whether it was an edge, on how
// many images share the product, or on which of the paths ran.
//
//pimcaps:hotpath
func Conv2DInto(dst, cols, input, weights, bias []float32, spec ConvSpec, h, w, nb int) {
	oh, ow := spec.OutSize(h, w)
	if oh <= 0 || ow <= 0 || nb <= 0 {
		panic(fmt.Sprintf("tensor: Conv2DInto kernel %d does not fit %dx%d input (nb=%d)", spec.K, h, w, nb))
	}
	n := nb * oh * ow
	kk := spec.Cin * spec.K * spec.K
	imgLen := spec.Cin * h * w
	if len(input) != nb*imgLen {
		panic(fmt.Sprintf("tensor: Conv2DInto input length %d, want %d×%d×%d×%d", len(input), nb, spec.Cin, h, w))
	}
	if want := ConvColsLen(spec, h, w, nb); len(cols) != want {
		panic(fmt.Sprintf("tensor: Conv2DInto cols length %d, want %d", len(cols), want))
	}
	if len(weights) != spec.Cout*kk {
		panic(fmt.Sprintf("tensor: Conv2DInto weights length %d, want %d", len(weights), spec.Cout*kk))
	}
	if len(dst) != spec.Cout*n {
		panic(fmt.Sprintf("tensor: Conv2DInto dst length %d, want %d", len(dst), spec.Cout*n))
	}
	if bias != nil && len(bias) != spec.Cout {
		panic(fmt.Sprintf("tensor: Conv2DInto bias length %d, want %d", len(bias), spec.Cout))
	}
	if Packed() && len(input) <= math.MaxInt32 { // the gather's offsets are int32
		convPacked(dst, cols, input, weights, spec, h, w, nb)
	} else {
		one := oh * ow
		for img := 0; img < nb; img++ {
			Im2ColInto(cols[:one*kk], input[img*imgLen:(img+1)*imgLen], spec, h, w)
			convTiled(dst[img*one:], cols, weights, spec.Cout, one, kk, n)
		}
	}
	for ch, b := range bias {
		out := dst[ch*n : (ch+1)*n]
		for r := range out {
			out[r] += b
		}
	}
}

// convKC is the reduction block of convPacked, re-swept for
// convTile8x32 on the 2-vCPU Sapphire Rapids Xeon dev host: one core,
// medians of 3–6 runs, GMAC/s for mn1's PrimaryCaps (kk = 20736,
// n = 36) / cv288's (kk = 5184): 64 → 14.4 / 9.9, 128 → 14.9 / 9.9,
// 256 → 14.9 / 10.3, 512 → 15.7 / 10.3, 1024 → 15.4 / 9.7,
// unblocked → 10.4 / 9.1. That is the YMM tile's plateau from 128 up
// (the steps inside it are within the host's run-to-run spread) and
// its cliff without the block: mn1's 3 MB of cols then streams from L3
// once per channel group. A 12×32 tile (24 accumulators) read
// 11.0 / 7.8 at 256, so the tile stays 8 channels tall.
const convKC = 256

// convPacked is the packed path of Conv2DInto: dst = weights·cols over
// the transposed im2col matrix of the whole batch, 8 channels × 32
// positions at a time where the CPU has AVX-512 (convTile8x32), 8 × 8
// otherwise. The reduction runs in blocks of convKC taps so that a
// block of cols (convKC·n floats, lowered just before it is used into
// the same few hundred kilobytes of scratch) and a channel group's
// weights stay cache-resident while every tile of the block is
// computed; between blocks the partial sums rest in dst itself, which
// rounds nothing and keeps j ascending. The weights stream once per
// call whatever nb is. The n%32 positions the wide tile leaves go
// through convTile8x8, whose last n%8 are masked lanes; the last
// Cout%8 channels go one at a time. Each kernel gets exactly the
// region it may touch, so a shape the checks above missed panics here,
// not in the kernel.
//
//pimcaps:hotpath
func convPacked(dst, cols, input, weights []float32, spec ConvSpec, h, w, nb int) {
	oh, ow := spec.OutSize(h, w)
	n := nb * oh * ow
	kk := spec.Cin * spec.K * spec.K
	wide := packed512()
	pos := cols[:posTableLen(n)]
	block := cols[len(pos):]
	fillPos(pos, spec, h, w, nb)
	var taps [convKC]int32
	for j0 := 0; j0 < kk; j0 += convKC {
		kc := min(convKC, kk-j0)
		lowerBlock(block[:kc*n], input, pos, taps[:kc], spec, h, w, n, j0)
		co := 0
		for ; co+8 <= spec.Cout; co += 8 {
			r := 0
			if wide {
				for ; r+32 <= n; r += 32 {
					convTile8x32(dst[co*n+r:(co+7)*n+r+32], weights[co*kk+j0:(co+7)*kk+j0+kc],
						block[r:(kc-1)*n+r+32], n, kk, kc, j0 == 0)
				}
			}
			for ; r < n; r += 8 {
				lanes := min(8, n-r)
				convTile8x8(dst[co*n+r:(co+7)*n+r+lanes], weights[co*kk+j0:(co+7)*kk+j0+kc],
					block[r:(kc-1)*n+r+lanes], n, kk, kc, lanes, j0 == 0)
			}
		}
		for ; co < spec.Cout; co++ {
			for r := 0; r < n; r += 8 {
				lanes := min(8, n-r)
				convTile1x8(dst[co*n+r:co*n+r+lanes], weights[co*kk+j0:co*kk+j0+kc],
					block[r:(kc-1)*n+r+lanes], n, kc, lanes, j0 == 0)
			}
		}
	}
}

// convTiled is the Go path of Conv2DInto for one image, and the
// reference the packed one is tested against: 2 output channels × 3
// output positions (dot2x3), with single dot products for the n%3
// positions and the odd channel left over. cols is the image's
// row-major lowering, and output channel c's n positions start at
// dst[c·ld].
//
//pimcaps:hotpath
func convTiled(dst, cols, weights []float32, cout, n, kk, ld int) {
	co := 0
	for ; co+2 <= cout; co += 2 {
		w0 := weights[co*kk : (co+1)*kk]
		w1 := weights[(co+1)*kk : (co+2)*kk]
		o0 := dst[co*ld : co*ld+n]
		o1 := dst[(co+1)*ld : (co+1)*ld+n]
		r := 0
		for ; r+3 <= n; r += 3 {
			o0[r], o0[r+1], o0[r+2], o1[r], o1[r+1], o1[r+2] = dot2x3(w0, w1,
				cols[r*kk:(r+1)*kk], cols[(r+1)*kk:(r+2)*kk], cols[(r+2)*kk:(r+3)*kk])
		}
		for ; r < n; r++ {
			crow := cols[r*kk : (r+1)*kk]
			o0[r], o1[r] = dot(w0, crow), dot(w1, crow)
		}
	}
	if co < cout {
		wrow := weights[co*kk : (co+1)*kk]
		out := dst[co*ld : co*ld+n]
		for r := range out {
			out[r] = dot(wrow, cols[r*kk:(r+1)*kk])
		}
	}
}

// dot2x3 is Conv2DInto's register tile: the six dot products of two
// weight rows with three im2col rows in one pass over j, so a step
// loads 5 values for 6 multiply-adds where six separate dots load 12,
// and the six sums are independent chains the adder can overlap.
//
// Six is the most this compiler holds in registers: its scheduler
// sinks a loop body's final adds below all of its multiplies, so N
// sums and N products are live together and 2N must fit the 15
// allocatable XMM registers. The 8-sum tiles (4×2, 2×4) spill three
// values a step and run 30% slower than this one. That is the limit of
// the Go path only: convTile8x8 advances 64 sums a step, convTile8x32
// 256, and this tile is what both are tested against.
//
//pimcaps:hotpath
func dot2x3(w0, w1, c0, c1, c2 []float32) (s00, s01, s02, s10, s11, s12 float32) {
	w1 = w1[:len(w0)]
	c0 = c0[:len(w0)]
	c1 = c1[:len(w0)]
	c2 = c2[:len(w0)]
	for j, x0 := range w0 {
		x1 := w1[j]
		v := c0[j]
		s00 += v * x0
		s10 += v * x1
		v = c1[j]
		s01 += v * x0
		s11 += v * x1
		v = c2[j]
		s02 += v * x0
		s12 += v * x1
	}
	return
}

// dot is the one-output edge of the tile, summed in the same order.
//
//pimcaps:hotpath
func dot(w, c []float32) (s float32) {
	w = w[:len(c)]
	for j, v := range c {
		s += v * w[j]
	}
	return
}

// Conv2D convolves input (Cin×H×W) with weights (Cout × Cin*K*K) and
// per-output-channel bias, returning a (Cout×oh×ow) tensor.
func Conv2D(input, weights *Tensor, bias []float32, spec ConvSpec) *Tensor {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if weights.Rank() != 2 || weights.Dim(0) != spec.Cout || weights.Dim(1) != spec.Cin*spec.K*spec.K {
		panic(fmt.Sprintf("tensor: Conv2D weights %v, want [%d %d]", weights.Shape(), spec.Cout, spec.Cin*spec.K*spec.K))
	}
	if input.Rank() != 3 || input.Dim(0) != spec.Cin {
		panic(fmt.Sprintf("tensor: Conv2D input %v, want [%d H W]", input.Shape(), spec.Cin))
	}
	h, w := input.Dim(1), input.Dim(2)
	oh, ow := spec.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D kernel %d does not fit %dx%d input", spec.K, h, w))
	}
	cols := make([]float32, ConvColsLen(spec, h, w, 1))
	out := New(spec.Cout, oh, ow)
	Conv2DInto(out.data, cols, input.data, weights.data, bias, spec, h, w, 1)
	return out
}
