package capsnet

import (
	"fmt"
	"math"
	"math/rand"

	"pimcapsnet/internal/tensor"
)

// CNN is the pooling-CNN baseline of the paper's motivation (§1,
// Fig. 1): Conv → ReLU → MaxPool → FC → softmax. The max-pooling's
// "happenstance translational invariance" is exactly what discards
// the pose information capsules preserve, which the equivariance
// comparison in examples/ and the tests demonstrate.
type CNN struct {
	Conv *ConvLayer
	Pool int
	FC   *FCLayer // logits (no activation; softmax in the loss)

	inC, inH, inW       int
	poolC, poolH, poolW int
}

// CNNConfig describes the baseline.
type CNNConfig struct {
	InputChannels, InputH, InputW int
	ConvChannels, ConvKernel      int
	Pool                          int
	Classes                       int
	Seed                          int64
}

// TinyCNNConfig mirrors TinyConfig's scale for apples-to-apples
// comparisons with the capsule network.
func TinyCNNConfig(classes int) CNNConfig {
	return CNNConfig{
		InputChannels: 1, InputH: 12, InputW: 12,
		ConvChannels: 16, ConvKernel: 5, Pool: 2,
		Classes: classes, Seed: 1,
	}
}

// NewCNN builds the baseline with seeded initialization.
func NewCNN(cfg CNNConfig) (*CNN, error) {
	if cfg.Classes <= 0 {
		return nil, fmt.Errorf("capsnet: CNN needs positive class count")
	}
	spec := tensor.ConvSpec{Cin: cfg.InputChannels, Cout: cfg.ConvChannels, K: cfg.ConvKernel, Stride: 1}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	oh, ow := spec.OutSize(cfg.InputH, cfg.InputW)
	if oh < cfg.Pool || ow < cfg.Pool || cfg.Pool <= 0 {
		return nil, fmt.Errorf("capsnet: pool %d does not fit conv output %dx%d", cfg.Pool, oh, ow)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	conv := NewConvLayer(spec, rng)
	ph, pw := oh/cfg.Pool, ow/cfg.Pool
	fc := NewFCLayer(cfg.ConvChannels*ph*pw, cfg.Classes, ActNone, rng)
	return &CNN{
		Conv: conv, Pool: cfg.Pool, FC: fc,
		inC: cfg.InputChannels, inH: cfg.InputH, inW: cfg.InputW,
		poolC: cfg.ConvChannels, poolH: ph, poolW: pw,
	}, nil
}

// Logits runs one image (C·H·W slice) to class logits.
func (c *CNN) Logits(img []float32) []float32 {
	in := tensor.FromSlice(img, c.inC, c.inH, c.inW)
	feat := c.Conv.Forward(in)
	pooled, _ := tensor.MaxPool2D(feat, c.Pool)
	return c.FC.Forward(pooled.Data())
}

// Predict returns the argmax class for one image.
func (c *CNN) Predict(img []float32) int {
	return tensor.ArgMax(c.Logits(img))
}

// EvaluateCNN returns the baseline's accuracy on a dataset tensor
// (B×C×H×W) with labels.
func EvaluateCNN(c *CNN, images *tensor.Tensor, labels []int) float64 {
	imgLen := c.inC * c.inH * c.inW
	correct := 0
	for k := range labels {
		if c.Predict(images.Data()[k*imgLen:(k+1)*imgLen]) == labels[k] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// CNNTrainer fits the baseline with softmax cross-entropy SGD,
// backpropagating through the FC layer, the max-pool argmaxes, the
// ReLU and the convolution.
type CNNTrainer struct {
	Net *CNN
	LR  float32
}

// TrainBatch performs one SGD step and returns mean loss and
// pre-update accuracy.
func (t *CNNTrainer) TrainBatch(images *tensor.Tensor, labels []int) (loss float32, acc float64) {
	c := t.Net
	nb := images.Dim(0)
	if len(labels) != nb {
		panic(fmt.Sprintf("capsnet: %d labels for CNN batch of %d", len(labels), nb))
	}
	imgLen := c.inC * c.inH * c.inW
	nc := c.FC.Out

	dWfc := tensor.New(c.FC.Weights.Shape()...)
	dBfc := make([]float32, nc)
	dWconv := tensor.New(c.Conv.Weights.Shape()...)
	dBconv := make([]float32, len(c.Conv.Bias))
	correct := 0

	for k := 0; k < nb; k++ {
		img := tensor.FromSlice(images.Data()[k*imgLen:(k+1)*imgLen], c.inC, c.inH, c.inW)
		feat := c.Conv.Forward(img) // post-ReLU
		pooled, arg := tensor.MaxPool2D(feat, c.Pool)
		logits := c.FC.Forward(pooled.Data())

		// Softmax cross-entropy.
		probs := make([]float32, nc)
		tensor.Softmax(probs, logits)
		if tensor.ArgMax(logits) == labels[k] {
			correct++
		}
		loss += -float32(math.Log(float64(probs[labels[k]] + 1e-12)))
		dLogits := make([]float32, nc)
		copy(dLogits, probs)
		dLogits[labels[k]] -= 1

		// FC backward.
		dPooled := fcBackward(c.FC, pooled.Data(), logits, dLogits, dWfc, dBfc)
		// Pool backward.
		dFeat := tensor.MaxPool2DBackward(
			tensor.FromSlice(dPooled, c.poolC, c.poolH, c.poolW), arg,
			feat.Dim(0), feat.Dim(1), feat.Dim(2))
		// ReLU backward.
		fd := feat.Data()
		for p, fv := range fd {
			if fv <= 0 {
				dFeat.Data()[p] = 0
			}
		}
		// Conv backward.
		g := tensor.Conv2DBackward(img, c.Conv.Weights, dFeat, c.Conv.Spec, false)
		accumulate(dWconv.Data(), g.DWeights.Data())
		accumulateSlice(dBconv, g.DBias)
	}

	step := t.LR / float32(nb)
	applyUpdate(c.FC.Weights.Data(), dWfc.Data(), step)
	applyUpdateSlice(c.FC.Bias, dBfc, step)
	applyUpdate(c.Conv.Weights.Data(), dWconv.Data(), step)
	applyUpdateSlice(c.Conv.Bias, dBconv, step)
	return loss / float32(nb), float64(correct) / float64(nb)
}
