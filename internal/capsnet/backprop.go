package capsnet

import (
	"fmt"

	"pimcapsnet/internal/tensor"
)

// FullTrainer trains every parameter of the network end to end with
// hand-derived backward passes: margin loss (plus optional
// reconstruction loss through the decoder), the squash Jacobian, the
// routing aggregation (coefficients treated as constants of the
// forward pass, the standard stop-gradient approximation), the
// prediction-vector transform, the PrimaryCaps convolution and the
// front-end convolution.
type FullTrainer struct {
	Net *Network
	// LR is the SGD learning rate.
	LR float32
	// NegScale rescales wrong-class margin gradients (see Trainer).
	NegScale float32
	// ReconWeight enables the reconstruction loss when > 0 (the
	// standard CapsNet uses the decoder as a training regularizer;
	// ReconstructionLoss already carries the 0.0005 scale, so 1 is
	// the reference weight). Requires a network with a decoder.
	ReconWeight float32
	// Momentum enables classical momentum SGD when > 0 (velocity
	// v ← μv + g; θ ← θ − LR·v).
	Momentum float32
	// WeightDecay applies L2 regularization to the convolution and
	// capsule transform weights when > 0.
	WeightDecay float32
	// Math supplies routing numerics during training.
	Math RoutingMath

	vel map[*tensor.Tensor][]float32 // per-parameter velocity buffers
}

// NewFullTrainer returns a FullTrainer with exact math.
func NewFullTrainer(net *Network, lr float32) *FullTrainer {
	return &FullTrainer{Net: net, LR: lr, Math: ExactMath{}}
}

// squashBackward maps the output gradient dv through the squash
// Jacobian at pre-activation s: with n = ‖s‖ and v = g(n)·s for
// g(n) = n/(1+n²),
//
//	dL/ds = g·dv + (g'/n)·(s·dv)·s,  g'(n) = (1−n²)/(1+n²)².
//
// ds is accumulated in place (ds += ...).
func squashBackward(ds, dv, s []float32) {
	n2 := tensor.SquaredNorm(s)
	if n2 == 0 {
		return // squash(0) ≡ 0 with zero Jacobian
	}
	n := sqrt32(n2)
	den := 1 + n2
	g := n / den
	gp := (1 - n2) / (den * den)
	dot := tensor.Dot(s, dv)
	coef := gp / n * dot
	for d := range ds {
		ds[d] += g*dv[d] + coef*s[d]
	}
}

// fcBackward backpropagates one FC layer: given the forward input x
// and post-activation output y, it consumes dOut, accumulates dW and
// db into the provided buffers, and returns dX.
func fcBackward(l *FCLayer, x, y, dOut []float32, dW *tensor.Tensor, dB []float32) []float32 {
	dpre := make([]float32, l.Out)
	switch l.Activation {
	case ActReLU:
		for i, v := range dOut {
			if y[i] > 0 {
				dpre[i] = v
			}
		}
	case ActSigmoid:
		for i, v := range dOut {
			dpre[i] = v * y[i] * (1 - y[i])
		}
	default:
		copy(dpre, dOut)
	}
	wd := l.Weights.Data()
	dwd := dW.Data()
	dx := make([]float32, l.In)
	for o := 0; o < l.Out; o++ {
		g := dpre[o]
		dB[o] += g
		if g == 0 {
			continue
		}
		wrow := wd[o*l.In : (o+1)*l.In]
		dwrow := dwd[o*l.In : (o+1)*l.In]
		for i := 0; i < l.In; i++ {
			dwrow[i] += g * x[i]
			dx[i] += g * wrow[i]
		}
	}
	return dx
}

// TrainBatch runs one full forward/backward/update step and returns
// the mean total loss (margin + weighted reconstruction) and the
// pre-update batch accuracy.
func (t *FullTrainer) TrainBatch(batch *tensor.Tensor, labels []int) (loss float32, acc float64) {
	net := t.Net
	cfg := net.Config
	nb := batch.Dim(0)
	if len(labels) != nb {
		panic(fmt.Sprintf("capsnet: %d labels for batch of %d", len(labels), nb))
	}
	if t.ReconWeight > 0 && net.Dec == nil {
		panic("capsnet: ReconWeight > 0 requires a decoder")
	}
	mathOps := t.Math
	if mathOps == nil {
		mathOps = ExactMath{}
	}

	numL := net.NumPrimaryCaps()
	cl, nc, dd := cfg.PrimaryDim, cfg.Classes, cfg.DigitDim

	// One pool of chunk workers serves every dispatch of the step and is
	// joined before it returns.
	d := openChunker()
	defer d.pool.close()

	// ---- forward, retaining intermediates ----
	imgSize := cfg.InputChannels * cfg.InputH * cfg.InputW
	convOuts := make([]*tensor.Tensor, nb) // post-ReLU conv features
	rawCaps := make([]*tensor.Tensor, nb)  // pre-squash primary capsule vectors (numL×cl)
	u := tensor.New(nb, numL, cl)
	d.runChunks(nb, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			img := tensor.FromSlice(batch.Data()[k*imgSize:(k+1)*imgSize], cfg.InputChannels, cfg.InputH, cfg.InputW)
			feat := net.Conv.Forward(img)
			convOuts[k] = feat
			raw := tensor.Conv2D(feat, net.Primary.Conv.Weights, net.Primary.Conv.Bias, net.Primary.Conv.Spec)
			caps := regroupPrimary(raw, net.Primary) // numL×cl, pre-squash
			rawCaps[k] = caps
			dst := u.Data()[k*numL*cl : (k+1)*numL*cl]
			for i := 0; i < numL; i++ {
				squashInto(mathOps, dst[i*cl:(i+1)*cl], caps.Data()[i*cl:(i+1)*cl])
			}
		}
	})
	preds := predictionVectors(d, u, net.Digit.Weights)
	routed := dynamicRouting(d, preds, net.Digit.Iterations, mathOps, net.Digit.Mode)
	v := routed.V

	lengths := tensor.New(nb, nc)
	for k := 0; k < nb; k++ {
		for j := 0; j < nc; j++ {
			off := (k*nc + j) * dd
			lengths.Data()[k*nc+j] = tensor.Norm(v.Data()[off : off+dd])
		}
	}
	correct := 0
	for k := 0; k < nb; k++ {
		if tensor.ArgMax(lengths.Data()[k*nc:(k+1)*nc]) == labels[k] {
			correct++
		}
	}
	acc = float64(correct) / float64(nb)

	// ---- gradient buffers ----
	dV := tensor.New(nb, nc, dd)
	dW1 := tensor.New(net.Conv.Weights.Shape()...)
	dB1 := make([]float32, len(net.Conv.Bias))
	dW2 := tensor.New(net.Primary.Conv.Weights.Shape()...)
	dB2 := make([]float32, len(net.Primary.Conv.Bias))
	dWd := tensor.New(net.Digit.Weights.Shape()...)
	var dDecW []*tensor.Tensor
	var dDecB [][]float32
	if t.ReconWeight > 0 {
		for _, l := range net.Dec.Layers {
			dDecW = append(dDecW, tensor.New(l.Weights.Shape()...))
			dDecB = append(dDecB, make([]float32, l.Out))
		}
	}

	// ---- loss heads ----
	for k := 0; k < nb; k++ {
		ls := lengths.Data()[k*nc : (k+1)*nc]
		loss += MarginLoss(ls, labels[k])
		g := MarginLossGrad(ls, labels[k])
		if t.NegScale != 0 && t.NegScale != 1 {
			for j := range g {
				if j != labels[k] {
					g[j] *= t.NegScale
				}
			}
		}
		for j := 0; j < nc; j++ {
			if g[j] == 0 || ls[j] == 0 {
				continue
			}
			off := (k*nc + j) * dd
			scale := g[j] / ls[j]
			for e := 0; e < dd; e++ {
				dV.Data()[off+e] += scale * v.Data()[off+e]
			}
		}

		if t.ReconWeight > 0 {
			// Decoder forward with true-class masking, retaining
			// per-layer activations.
			masked := make([]float32, nc*dd)
			j := labels[k]
			copy(masked[j*dd:(j+1)*dd], v.Data()[(k*nc+j)*dd:(k*nc+j+1)*dd])
			acts := [][]float32{masked}
			x := masked
			for _, l := range net.Dec.Layers {
				x = l.Forward(x)
				acts = append(acts, x)
			}
			target := batch.Data()[k*imgSize : (k+1)*imgSize]
			loss += t.ReconWeight * ReconstructionLoss(x, target)
			// dRecon/drecon_i = 2·0.0005·(recon−target).
			dx := make([]float32, len(x))
			for p := range x {
				dx[p] = t.ReconWeight * 0.001 * (x[p] - target[p])
			}
			for li := len(net.Dec.Layers) - 1; li >= 0; li-- {
				dx = fcBackward(net.Dec.Layers[li], acts[li], acts[li+1], dx, dDecW[li], dDecB[li])
			}
			// dx is the masked-capsule gradient: only class j's slice.
			off := (k*nc + j) * dd
			for e := 0; e < dd; e++ {
				dV.Data()[off+e] += dx[j*dd+e]
			}
		}
	}
	loss /= float32(nb)

	// ---- routing backward ----
	// Recompute s_j^k = Σ_i c_ij û_ij, then dS via squash Jacobian,
	// dÛ = c·dS, dW_ij += u ⊗ dÛ, dU = W·dÛ.
	dU := tensor.New(nb, numL, cl)
	cd := routed.C.Data()
	pd := preds.Data()
	wd := net.Digit.Weights.Data()
	dwd := dWd.Data()
	ud := u.Data()
	dud := dU.Data()
	s := make([]float32, dd)
	ds := make([]float32, dd)
	for k := 0; k < nb; k++ {
		for j := 0; j < nc; j++ {
			for e := range s {
				s[e], ds[e] = 0, 0
			}
			for i := 0; i < numL; i++ {
				cij := cd[(k*numL+i)*nc+j]
				if cij == 0 {
					continue
				}
				up := pd[((k*numL+i)*nc+j)*dd : ((k*numL+i)*nc+j+1)*dd]
				for e := 0; e < dd; e++ {
					s[e] += cij * up[e]
				}
			}
			dv := dV.Data()[(k*nc+j)*dd : (k*nc+j+1)*dd]
			squashBackward(ds, dv, s)
			zero := true
			for _, x := range ds {
				if x != 0 {
					zero = false
					break
				}
			}
			if zero {
				continue
			}
			for i := 0; i < numL; i++ {
				cij := cd[(k*numL+i)*nc+j]
				if cij == 0 {
					continue
				}
				uv := ud[(k*numL+i)*cl : (k*numL+i+1)*cl]
				duv := dud[(k*numL+i)*cl : (k*numL+i+1)*cl]
				wbase := (i*nc + j) * cl * dd
				for d := 0; d < cl; d++ {
					wrow := wd[wbase+d*dd : wbase+(d+1)*dd]
					dwrow := dwd[wbase+d*dd : wbase+(d+1)*dd]
					var du float32
					uvd := uv[d]
					for e := 0; e < dd; e++ {
						gu := cij * ds[e]
						dwrow[e] += gu * uvd
						du += gu * wrow[e]
					}
					duv[d] += du
				}
			}
		}
	}

	// ---- primary caps + conv backward (per sample, worker-local
	// gradient buffers merged deterministically in worker order) ----
	workers := min(d.workers, nb)
	w1bufs := make([]*tensor.Tensor, workers)
	b1bufs := make([][]float32, workers)
	w2bufs := make([]*tensor.Tensor, workers)
	b2bufs := make([][]float32, workers)
	for w := 0; w < workers; w++ {
		w1bufs[w] = tensor.New(net.Conv.Weights.Shape()...)
		b1bufs[w] = make([]float32, len(net.Conv.Bias))
		w2bufs[w] = tensor.New(net.Primary.Conv.Weights.Shape()...)
		b2bufs[w] = make([]float32, len(net.Primary.Conv.Bias))
	}
	used := d.runChunks(nb, func(w, lo, hi int) {
		for k := lo; k < hi; k++ {
			// Through the primary squash.
			dRawCaps := tensor.New(numL, cl)
			for i := 0; i < numL; i++ {
				squashBackward(
					dRawCaps.Data()[i*cl:(i+1)*cl],
					dud[(k*numL+i)*cl:(k*numL+i+1)*cl],
					rawCaps[k].Data()[i*cl:(i+1)*cl])
			}
			// Scatter back to the primary conv output layout.
			spec := net.Primary.Conv.Spec
			oh, ow := spec.OutSize(convOuts[k].Dim(1), convOuts[k].Dim(2))
			dRaw := scatterPrimary(dRawCaps, net.Primary, oh, ow)
			g2 := tensor.Conv2DBackward(convOuts[k], net.Primary.Conv.Weights, dRaw, spec, true)
			accumulate(w2bufs[w].Data(), g2.DWeights.Data())
			accumulateSlice(b2bufs[w], g2.DBias)
			// ReLU backward on the conv1 features.
			dFeat := g2.DInput
			fd := convOuts[k].Data()
			for p, fv := range fd {
				if fv <= 0 {
					dFeat.Data()[p] = 0
				}
			}
			img := tensor.FromSlice(batch.Data()[k*imgSize:(k+1)*imgSize], cfg.InputChannels, cfg.InputH, cfg.InputW)
			g1 := tensor.Conv2DBackward(img, net.Conv.Weights, dFeat, net.Conv.Spec, false)
			accumulate(w1bufs[w].Data(), g1.DWeights.Data())
			accumulateSlice(b1bufs[w], g1.DBias)
		}
	})
	for w := 0; w < used; w++ {
		accumulate(dW1.Data(), w1bufs[w].Data())
		accumulateSlice(dB1, b1bufs[w])
		accumulate(dW2.Data(), w2bufs[w].Data())
		accumulateSlice(dB2, b2bufs[w])
	}

	// ---- SGD update (optionally with momentum and weight decay) ----
	step := t.LR / float32(nb)
	t.update(net.Conv.Weights, dW1.Data(), step, true)
	applyUpdateSlice(net.Conv.Bias, dB1, step)
	t.update(net.Primary.Conv.Weights, dW2.Data(), step, true)
	applyUpdateSlice(net.Primary.Conv.Bias, dB2, step)
	t.update(net.Digit.Weights, dWd.Data(), step, true)
	if t.ReconWeight > 0 {
		for li, l := range net.Dec.Layers {
			t.update(l.Weights, dDecW[li].Data(), step, false)
			applyUpdateSlice(l.Bias, dDecB[li], step)
		}
	}
	return loss, acc
}

// update applies one parameter update with the trainer's optimizer
// settings; decay selects whether weight decay applies (biases and
// decoder weights are exempt, the usual convention).
func (t *FullTrainer) update(param *tensor.Tensor, grad []float32, step float32, decay bool) {
	w := param.Data()
	if decay && t.WeightDecay > 0 {
		for i := range grad {
			grad[i] += t.WeightDecay * w[i]
		}
	}
	if t.Momentum > 0 {
		if t.vel == nil {
			t.vel = make(map[*tensor.Tensor][]float32)
		}
		v, ok := t.vel[param]
		if !ok {
			v = make([]float32, len(w))
			t.vel[param] = v
		}
		for i := range w {
			v[i] = t.Momentum*v[i] + grad[i]
			w[i] -= step * v[i]
		}
		return
	}
	applyUpdate(w, grad, step)
}

// regroupPrimary reshapes a primary conv output (ch·dim × oh × ow)
// into capsule vectors (numL × dim) without squashing.
func regroupPrimary(raw *tensor.Tensor, l *PrimaryCapsLayer) *tensor.Tensor {
	oh, ow := raw.Dim(1), raw.Dim(2)
	n := l.Channels * oh * ow
	out := tensor.New(n, l.CapsDim)
	od, rd := out.Data(), raw.Data()
	idx := 0
	for c := 0; c < l.Channels; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				for d := 0; d < l.CapsDim; d++ {
					od[idx*l.CapsDim+d] = rd[(c*l.CapsDim+d)*oh*ow+y*ow+x]
				}
				idx++
			}
		}
	}
	return out
}

// scatterPrimary is the adjoint of regroupPrimary: capsule-vector
// gradients back to the conv output layout.
func scatterPrimary(dCaps *tensor.Tensor, l *PrimaryCapsLayer, oh, ow int) *tensor.Tensor {
	out := tensor.New(l.Channels*l.CapsDim, oh, ow)
	od, dc := out.Data(), dCaps.Data()
	idx := 0
	for c := 0; c < l.Channels; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				for d := 0; d < l.CapsDim; d++ {
					od[(c*l.CapsDim+d)*oh*ow+y*ow+x] = dc[idx*l.CapsDim+d]
				}
				idx++
			}
		}
	}
	return out
}

func accumulate(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

func accumulateSlice(dst, src []float32) { accumulate(dst, src) }

func applyUpdate(w, dw []float32, step float32) {
	for i, g := range dw {
		w[i] -= step * g
	}
}

func applyUpdateSlice(w, dw []float32, step float32) { applyUpdate(w, dw, step) }
