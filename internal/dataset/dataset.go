// Package dataset generates seeded synthetic image-classification
// datasets that stand in for MNIST, CIFAR10, EMNIST and SVHN (which
// are unavailable in this offline environment; see DESIGN.md §2).
// Every consumer starts from Tiny: Table 5's proxies resize it to
// each benchmark's input and set its class count.
//
// Each class owns a smooth random prototype image; samples are the
// prototype plus per-pixel Gaussian noise and a small random global
// intensity shift, clamped to [0, 1]. The resulting problems are
// learnable but not trivial, which is all the paper's accuracy
// experiments (Table 5) require: they measure the accuracy *delta*
// between exact and PE-approximated routing on a trained model.
package dataset

import (
	"fmt"
	"math/rand"

	"pimcapsnet/internal/tensor"
)

// Spec describes a synthetic dataset.
type Spec struct {
	Name     string
	Classes  int
	Channels int
	H, W     int
	// Noise is the per-pixel Gaussian noise σ added to prototypes.
	Noise float64
	// Seed drives prototype and sample generation.
	Seed int64
}

// Tiny returns a small dataset for unit tests and quick examples.
func Tiny(classes int) Spec {
	return Spec{Name: fmt.Sprintf("tiny-%d", classes), Classes: classes, Channels: 1, H: 12, W: 12, Noise: 0.1, Seed: 99}
}

// Dataset holds generated samples.
type Dataset struct {
	Spec   Spec
	Images *tensor.Tensor // N×C×H×W in [0,1]
	Labels []int
}

// Generator produces samples for a Spec.
type Generator struct {
	spec       Spec
	prototypes []*tensor.Tensor // one C×H×W prototype per class
	rng        *rand.Rand
}

// NewGenerator builds the class prototypes for spec.
func NewGenerator(spec Spec) *Generator {
	if spec.Classes <= 0 || spec.Channels <= 0 || spec.H <= 0 || spec.W <= 0 {
		panic(fmt.Sprintf("dataset: invalid spec %+v", spec))
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	g := &Generator{spec: spec, rng: rng}
	for c := 0; c < spec.Classes; c++ {
		g.prototypes = append(g.prototypes, smoothPrototype(spec, rng))
	}
	return g
}

// smoothPrototype samples white noise and box-blurs it twice, yielding
// a smooth class-specific pattern in [0,1].
func smoothPrototype(spec Spec, rng *rand.Rand) *tensor.Tensor {
	p := tensor.New(spec.Channels, spec.H, spec.W)
	for i := range p.Data() {
		p.Data()[i] = rng.Float32()
	}
	for pass := 0; pass < 2; pass++ {
		blur(p, spec)
	}
	// Stretch contrast to span [0.1, 0.9].
	lo, hi := p.Data()[0], p.Data()[0]
	for _, v := range p.Data() {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	for i, v := range p.Data() {
		p.Data()[i] = 0.1 + 0.8*(v-lo)/span
	}
	return p
}

func blur(p *tensor.Tensor, spec Spec) {
	tmp := p.Clone()
	for c := 0; c < spec.Channels; c++ {
		for y := 0; y < spec.H; y++ {
			for x := 0; x < spec.W; x++ {
				var sum float32
				var n float32
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						yy, xx := y+dy, x+dx
						if yy < 0 || yy >= spec.H || xx < 0 || xx >= spec.W {
							continue
						}
						sum += tmp.At(c, yy, xx)
						n++
					}
				}
				p.Set(sum/n, c, y, x)
			}
		}
	}
}

// Sample writes one image of class label into dst (a C·H·W slice).
func (g *Generator) Sample(dst []float32, label int) {
	proto := g.prototypes[label].Data()
	shift := float32(g.rng.NormFloat64()) * 0.05
	for i, v := range proto {
		x := v + shift + float32(g.rng.NormFloat64())*float32(g.spec.Noise)
		if x < 0 {
			x = 0
		}
		if x > 1 {
			x = 1
		}
		dst[i] = x
	}
}

// Generate produces n samples with labels cycling through the classes
// (so every class is represented for n ≥ Classes).
func (g *Generator) Generate(n int) *Dataset {
	imgLen := g.spec.Channels * g.spec.H * g.spec.W
	images := tensor.New(n, g.spec.Channels, g.spec.H, g.spec.W)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		label := i % g.spec.Classes
		labels[i] = label
		g.Sample(images.Data()[i*imgLen:(i+1)*imgLen], label)
	}
	return &Dataset{Spec: g.spec, Images: images, Labels: labels}
}
