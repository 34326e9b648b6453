package capsnet

import (
	"fmt"
	"math"
	"math/rand"

	"pimcapsnet/internal/tensor"
)

// ConvLayer is a standard convolution + ReLU layer (the CapsNet
// front end of Fig. 2).
type ConvLayer struct {
	Spec    tensor.ConvSpec
	Weights *tensor.Tensor // Cout × (Cin·K·K)
	Bias    []float32
}

// NewConvLayer creates a convolution layer with He-initialized weights
// drawn from rng.
func NewConvLayer(spec tensor.ConvSpec, rng *rand.Rand) *ConvLayer {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	fanIn := spec.Cin * spec.K * spec.K
	std := float32(math.Sqrt(2 / float64(fanIn)))
	w := tensor.New(spec.Cout, fanIn)
	for i := range w.Data() {
		w.Data()[i] = float32(rng.NormFloat64()) * std
	}
	return &ConvLayer{Spec: spec, Weights: w, Bias: make([]float32, spec.Cout)}
}

// Forward applies the convolution and ReLU to a Cin×H×W input.
func (l *ConvLayer) Forward(input *tensor.Tensor) *tensor.Tensor {
	out := tensor.Conv2D(input, l.Weights, l.Bias, l.Spec)
	tensor.ReLU(out.Data())
	return out
}

// PrimaryCapsLayer converts a convolution output into capsules: a
// convolution producing Channels·CapsDim feature maps whose activations
// are regrouped into (Channels·oh·ow) capsules of dimension CapsDim and
// squashed (Fig. 2's PrimaryCaps layer).
type PrimaryCapsLayer struct {
	Conv     *ConvLayer
	Channels int // capsule channels (32 in CapsNet-MNIST)
	CapsDim  int // dimension per capsule (8 in CapsNet-MNIST)
}

// NewPrimaryCapsLayer builds the PrimaryCaps convolution for cin input
// channels with the given kernel/stride.
func NewPrimaryCapsLayer(cin, channels, capsDim, k, stride int, rng *rand.Rand) *PrimaryCapsLayer {
	spec := tensor.ConvSpec{Cin: cin, Cout: channels * capsDim, K: k, Stride: stride}
	return &PrimaryCapsLayer{Conv: NewConvLayer(spec, rng), Channels: channels, CapsDim: capsDim}
}

// NumCaps returns the number of capsules produced for an h×w conv
// input.
func (l *PrimaryCapsLayer) NumCaps(h, w int) int {
	oh, ow := l.Conv.Spec.OutSize(h, w)
	return l.Channels * oh * ow
}

// Forward maps a Cin×H×W activation tensor to L×CapsDim squashed
// capsules.
func (l *PrimaryCapsLayer) Forward(input *tensor.Tensor) *tensor.Tensor {
	raw := tensor.Conv2D(input, l.Conv.Weights, l.Conv.Bias, l.Conv.Spec) // (ch·dim)×oh×ow
	hw := raw.Dim(1) * raw.Dim(2)
	out := tensor.New(l.Channels*hw, l.CapsDim)
	regroupSquash(out.Data(), raw.Data(), l.Channels, l.CapsDim, hw, hw)
	return out
}

// regroupSquash is the PrimaryCaps epilogue: it regroups a raw
// (channels·capsDim)-row convolution output, rows ld floats apart, into
// channels·hw capsules of capsDim contiguous values — capsule (c, p)
// takes dimension d from raw[(c·capsDim+d)·ld + p] — and squashes each
// with exact math (PrimaryCaps runs on the host): squashInto with
// ExactMath, operation for operation, but called directly rather than
// through RoutingMath.
//
//pimcaps:hotpath
func regroupSquash(caps, raw []float32, channels, capsDim, hw, ld int) {
	for c := 0; c < channels; c++ {
		rows := raw[c*capsDim*ld:]
		for p := 0; p < hw; p++ {
			v := caps[(c*hw+p)*capsDim : (c*hw+p+1)*capsDim]
			var sq float32
			for d := range v {
				v[d] = rows[d*ld+p]
				sq += v[d] * v[d]
			}
			scaleCapsule(v, sq)
		}
	}
}

// scaleCapsule finishes squashInto with ExactMath on a capsule v whose
// squared norm is sq: v · sq · Recip(1+sq) · InvSqrt(sq), or zeros
// where sq is 0.
//
//pimcaps:hotpath
func scaleCapsule(v []float32, sq float32) {
	if sq == 0 {
		clear(v)
		return
	}
	scale := sq * (1 / (1 + sq)) * float32(1/math.Sqrt(float64(sq)))
	for d := range v {
		v[d] *= scale
	}
}

// CapsLayer is a capsule layer connected to its predecessor by the
// routing procedure: NumIn capsules of dimension DimIn are routed into
// NumOut capsules of dimension DimOut through per-pair weight matrices
// (Eq. 1) and iterations of dynamic routing.
type CapsLayer struct {
	NumIn, DimIn   int
	NumOut, DimOut int
	Iterations     int
	// Mode scopes the routing coefficients (per-sample by default;
	// batch-shared is the paper's Alg. 1 formulation).
	Mode    RoutingMode
	Weights *tensor.Tensor // NumIn×NumOut×DimIn×DimOut
}

// NewCapsLayer creates a capsule layer with Xavier-initialized weights.
func NewCapsLayer(numIn, dimIn, numOut, dimOut, iterations int, rng *rand.Rand) *CapsLayer {
	if numIn <= 0 || dimIn <= 0 || numOut <= 0 || dimOut <= 0 {
		panic(fmt.Sprintf("capsnet: invalid CapsLayer geometry %d·%d → %d·%d", numIn, dimIn, numOut, dimOut))
	}
	if iterations < 1 {
		panic("capsnet: CapsLayer needs at least one routing iteration")
	}
	std := float32(math.Sqrt(2 / float64(dimIn+dimOut)))
	w := tensor.New(numIn, numOut, dimIn, dimOut)
	for i := range w.Data() {
		w.Data()[i] = float32(rng.NormFloat64()) * std
	}
	return &CapsLayer{NumIn: numIn, DimIn: dimIn, NumOut: numOut, DimOut: dimOut, Iterations: iterations, Weights: w}
}

// Forward routes a batch of input capsules (B×NumIn×DimIn) to output
// capsules (B×NumOut×DimOut) using mathOps for the routing special
// functions. It returns the routing result, whose V field is the layer
// output.
func (l *CapsLayer) Forward(u *tensor.Tensor, mathOps RoutingMath) RoutingResult {
	if u.Rank() != 3 || u.Dim(1) != l.NumIn || u.Dim(2) != l.DimIn {
		panic(fmt.Sprintf("capsnet: CapsLayer input %v, want B×%d×%d", u.Shape(), l.NumIn, l.DimIn))
	}
	d := openChunker()
	defer d.pool.close()
	preds := predictionVectors(d, u, l.Weights)
	return dynamicRouting(d, preds, l.Iterations, mathOps, l.Mode)
}

// FCLayer is a fully-connected layer with a selectable activation,
// used by the reconstruction decoder (Fig. 2's FC stack).
type FCLayer struct {
	In, Out    int
	Weights    *tensor.Tensor // Out×In
	Bias       []float32
	Activation Activation
}

// Activation selects an FC layer's nonlinearity.
type Activation int

// Supported activations.
const (
	ActNone Activation = iota
	ActReLU
	ActSigmoid
)

// NewFCLayer creates a fully-connected layer with Xavier-initialized
// weights.
func NewFCLayer(in, out int, act Activation, rng *rand.Rand) *FCLayer {
	std := float32(math.Sqrt(2 / float64(in+out)))
	w := tensor.New(out, in)
	for i := range w.Data() {
		w.Data()[i] = float32(rng.NormFloat64()) * std
	}
	return &FCLayer{In: in, Out: out, Weights: w, Bias: make([]float32, out), Activation: act}
}

// Forward applies the layer to a single input vector.
func (l *FCLayer) Forward(x []float32) []float32 {
	if len(x) != l.In {
		panic(fmt.Sprintf("capsnet: FCLayer input length %d, want %d", len(x), l.In))
	}
	y := tensor.MatVec(l.Weights, x)
	for i := range y {
		y[i] += l.Bias[i]
	}
	switch l.Activation {
	case ActReLU:
		tensor.ReLU(y)
	case ActSigmoid:
		tensor.Sigmoid(y)
	}
	return y
}

// Decoder is the reconstruction decoder: a stack of FC layers applied
// to the (masked) final capsule outputs.
type Decoder struct {
	Layers []*FCLayer
}

// NewDecoder builds the paper's 512→1024→output decoder on top of a
// capsInput-sized masked capsule vector.
func NewDecoder(capsInput, output int, rng *rand.Rand) *Decoder {
	return &Decoder{Layers: []*FCLayer{
		NewFCLayer(capsInput, 512, ActReLU, rng),
		NewFCLayer(512, 1024, ActReLU, rng),
		NewFCLayer(1024, output, ActSigmoid, rng),
	}}
}

// Forward runs the decoder on a masked capsule vector.
func (d *Decoder) Forward(x []float32) []float32 {
	for _, l := range d.Layers {
		x = l.Forward(x)
	}
	return x
}
