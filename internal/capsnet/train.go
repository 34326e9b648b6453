package capsnet

import (
	"fmt"
	"math"

	"pimcapsnet/internal/tensor"
)

// Trainer fits the final capsule layer's transformation weights W_ij
// with stochastic gradient descent on the margin loss. Gradients flow
// through squash and the weighted aggregation of Eq. 2 while the
// routing coefficients c_ij are treated as constants of the forward
// pass (the standard "stop-gradient through routing" approximation
// used by reference CapsNet implementations); the Conv/PrimaryCaps
// front end stays fixed. This reproduces trained-model behaviour for
// the accuracy experiments without requiring GPU training
// infrastructure (see DESIGN.md §2).
type Trainer struct {
	Net *Network
	// LR is the SGD learning rate.
	LR float32
	// NegScale rescales the wrong-class margin gradient. Sabour et
	// al.'s λ = 0.5 balances one positive against nine negatives on
	// MNIST; for many-class problems the negatives otherwise swamp
	// the positive signal, so trainers typically use ≈ 10/classes.
	// Zero means 1 (no rescale).
	NegScale float32
	// Math supplies routing numerics during training (normally
	// ExactMath: the paper trains on GPU and deploys on PIM).
	Math RoutingMath
}

// NewTrainer returns a Trainer with exact math and the given rate.
func NewTrainer(net *Network, lr float32) *Trainer {
	return &Trainer{Net: net, LR: lr, Math: ExactMath{}}
}

// TrainBatch performs one forward/backward/update step on a batch of
// images (B×C×H×W) with the given labels. It returns the mean margin
// loss and the batch accuracy before the update.
func (t *Trainer) TrainBatch(batch *tensor.Tensor, labels []int) (loss float32, acc float64) {
	nb := batch.Dim(0)
	if len(labels) != nb {
		panic(fmt.Sprintf("capsnet: %d labels for batch of %d", len(labels), nb))
	}
	out := t.Net.Forward(batch, t.Math)
	// Everything below reads out's tensors before returning, so the
	// scratch arena can go back to the Network's pool on exit: without
	// this, every training step abandons its arena and allocates a
	// fresh slab on the next Forward (releasecheck enforces this).
	defer out.Release()
	nc, dd := t.Net.Config.Classes, t.Net.Config.DigitDim
	nl, dl := t.Net.Digit.NumIn, t.Net.Digit.DimIn

	preds := out.Predictions()
	correct := 0
	for k, p := range preds {
		if p == labels[k] {
			correct++
		}
	}
	acc = float64(correct) / float64(nb)

	// dLoss/ds per (k, j).
	dLds := tensor.New(nb, nc, dd)
	for k := 0; k < nb; k++ {
		lengths := out.Lengths.Data()[k*nc : (k+1)*nc]
		loss += MarginLoss(lengths, labels[k])
		g := MarginLossGrad(lengths, labels[k])
		if t.NegScale != 0 && t.NegScale != 1 {
			for j := range g {
				if j != labels[k] {
					g[j] *= t.NegScale
				}
			}
		}
		for j := 0; j < nc; j++ {
			if g[j] == 0 {
				continue
			}
			// s_j is recovered from v_j: v = n/(1+n²)·s with n = ‖s‖
			// and ‖v‖ = n²/(1+n²). d‖v‖/ds = 2/(1+n²)²·s, and
			// s = v·(1+n²)/n, so d‖v‖/ds = 2·v/(n(1+n²)).
			vlen := lengths[j]
			if vlen <= 0 || vlen >= 1 {
				continue
			}
			// ‖v‖ = n²/(1+n²) → n = sqrt(‖v‖/(1−‖v‖)).
			n2 := vlen / (1 - vlen)
			n := sqrt32(n2)
			scale := g[j] * 2 / (n * (1 + n2))
			voff := (k*nc + j) * dd
			doff := voff
			for e := 0; e < dd; e++ {
				dLds.Data()[doff+e] = scale * out.Capsules.Data()[voff+e]
			}
		}
	}
	loss /= float32(nb)

	// Accumulate dLoss/dW_ij = Σ_k c_ij · u_i^k ⊗ dLds_j^k and apply
	// the SGD update in place.
	wd := t.Net.Digit.Weights.Data()
	cd := out.Routing.C.Data()
	ud := out.Primary.Data()
	dd32 := dLds.Data()
	step := t.LR / float32(nb)
	for k := 0; k < nb; k++ {
		for j := 0; j < nc; j++ {
			ds := dd32[(k*nc+j)*dd : (k*nc+j+1)*dd]
			zero := true
			for _, v := range ds {
				if v != 0 {
					zero = false
					break
				}
			}
			if zero {
				continue
			}
			for i := 0; i < nl; i++ {
				cij := cd[(k*nl+i)*nc+j]
				if cij == 0 {
					continue
				}
				uv := ud[(k*nl+i)*dl : (k*nl+i+1)*dl]
				wbase := (i*nc + j) * dl * dd
				for d := 0; d < dl; d++ {
					f := step * cij * uv[d]
					if f == 0 {
						continue
					}
					wrow := wd[wbase+d*dd : wbase+(d+1)*dd]
					for e := 0; e < dd; e++ {
						wrow[e] -= f * ds[e]
					}
				}
			}
		}
	}
	return loss, acc
}

// Evaluate returns classification accuracy of the network on the given
// images/labels using mathOps for routing numerics.
func Evaluate(net *Network, images *tensor.Tensor, labels []int, mathOps RoutingMath) float64 {
	out := net.Forward(images, mathOps)
	defer out.Release()
	preds := out.Predictions()
	correct := 0
	for k, p := range preds {
		if p == labels[k] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}
