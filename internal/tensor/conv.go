package tensor

import "fmt"

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

// Conv2DInto convolves a flattened Cin×h×w input with weights
// (Cout·(Cin·K·K), row-major) and per-output-channel bias, writing the
// Cout×oh×ow result into dst. cols is the im2col scratch, length
// (oh*ow)·(Cin·K·K). Every element of dst is overwritten.
//
// The product weights·colsᵀ is walked in register tiles of 2 output
// channels × 3 output positions (dot2x3), with single dot products for
// the n%3 positions and the odd channel left over. Tiling only changes
// which outputs are computed together: every output is still its own
// sum over j ascending from +0 with the bias added last, so the result
// does not depend on the tile shape, on where an output falls in a
// tile, or on whether it was an edge.
//
//pimcaps:hotpath
func Conv2DInto(dst, cols, input, weights, bias []float32, spec ConvSpec, h, w int) {
	oh, ow := spec.OutSize(h, w)
	n := oh * ow
	kk := spec.Cin * spec.K * spec.K
	if len(weights) != spec.Cout*kk {
		panic(fmt.Sprintf("tensor: Conv2DInto weights length %d, want %d", len(weights), spec.Cout*kk))
	}
	if len(dst) != spec.Cout*n {
		panic(fmt.Sprintf("tensor: Conv2DInto dst length %d, want %d", len(dst), spec.Cout*n))
	}
	if bias != nil && len(bias) != spec.Cout {
		panic(fmt.Sprintf("tensor: Conv2DInto bias length %d, want %d", len(bias), spec.Cout))
	}
	Im2ColInto(cols, input, spec, h, w)
	co := 0
	for ; co+2 <= spec.Cout; co += 2 {
		w0 := weights[co*kk : (co+1)*kk]
		w1 := weights[(co+1)*kk : (co+2)*kk]
		o0 := dst[co*n : (co+1)*n]
		o1 := dst[(co+1)*n : (co+2)*n]
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
	if co < spec.Cout {
		wrow := weights[co*kk : (co+1)*kk]
		out := dst[co*n : (co+1)*n]
		for r := range out {
			out[r] = dot(wrow, cols[r*kk:(r+1)*kk])
		}
	}
	for ch, b := range bias {
		out := dst[ch*n : (ch+1)*n]
		for r := range out {
			out[r] += b
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
// values a step and run 30% slower than this one.
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
	cols := make([]float32, oh*ow*spec.Cin*spec.K*spec.K)
	out := New(spec.Cout, oh, ow)
	Conv2DInto(out.data, cols, input.data, weights.data, bias, spec, h, w)
	return out
}
