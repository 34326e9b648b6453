// Package capsnet is a from-scratch Capsule Network library: Conv and
// PrimaryCaps front end, capsule layers connected by the dynamic
// routing procedure of Sabour et al. (per-sample, or batch-shared as
// in the PIM-CapsNet paper's Alg. 1), an EM-routing variant, a
// fully-connected reconstruction decoder, margin loss, two trainers
// (capsule-layer-only and full end-to-end backpropagation with
// momentum/weight-decay), checkpoint serialization, and the
// pooling-CNN baseline of the paper's §1 motivation.
//
// All routing arithmetic goes through the RoutingMath interface so the
// same code runs both the host-GPU reference numerics (ExactMath) and
// the PIM-CapsNet processing-element approximations (PEMath), which is
// how the Table 5 accuracy experiments are produced.
package capsnet

import (
	"math"

	"pimcapsnet/internal/fp32"
)

// RoutingMath supplies the three special functions the routing
// procedure needs beyond multiply-accumulate: exponential (softmax,
// Eq. 5), inverse square root and reciprocal (squash, Eq. 3).
type RoutingMath interface {
	// Exp returns e^x.
	Exp(x float32) float32
	// InvSqrt returns 1/√x for x ≥ 0.
	InvSqrt(x float32) float32
	// Recip returns 1/x.
	Recip(x float32) float32
}

// ExactMath evaluates the special functions with full host precision —
// the numerics of the GPU baseline.
type ExactMath struct{}

// Exp implements RoutingMath.
func (ExactMath) Exp(x float32) float32 { return float32(math.Exp(float64(x))) }

// InvSqrt implements RoutingMath.
func (ExactMath) InvSqrt(x float32) float32 { return float32(1 / math.Sqrt(float64(x))) }

// Recip implements RoutingMath.
func (ExactMath) Recip(x float32) float32 { return 1 / x }

// PEMath evaluates the special functions exactly as the PIM-CapsNet
// vault PEs would: bit-shifting approximations from internal/fp32,
// each optionally followed by the one-multiply accuracy recovery.
type PEMath struct {
	// Recovery holds the calibrated per-function scale factors.
	// Use fp32.Identity for the "w/o Accuracy Recovery" rows of
	// Table 5 and fp32.Default for the "w/ Accuracy Recovery" rows.
	Recovery fp32.Recovery
}

// NewPEMath returns PEMath with the default calibrated recovery.
func NewPEMath() PEMath { return PEMath{Recovery: fp32.Default} }

// NewPEMathNoRecovery returns PEMath with recovery disabled.
func NewPEMathNoRecovery() PEMath { return PEMath{Recovery: fp32.Identity} }

// Exp implements RoutingMath.
func (m PEMath) Exp(x float32) float32 { return fp32.ApproxExp(x) * m.Recovery.Exp }

// InvSqrt implements RoutingMath.
func (m PEMath) InvSqrt(x float32) float32 { return fp32.FastInvSqrt(x) * m.Recovery.InvSqrt }

// Recip implements RoutingMath.
func (m PEMath) Recip(x float32) float32 { return fp32.FastRecip(x) * m.Recovery.Recip }

// softmaxRows computes, with the given math, the row-wise softmax of
// Eq. 5: for each low-level capsule i, c_i· = softmax(b_i·) over the
// high-level capsules. b and c are L×H matrices in row-major order; c
// may alias b.
//
//pimcaps:hotpath
func softmaxRows(mathOps RoutingMath, c, b []float32, nl, nh int) {
	for i := 0; i < nl; i++ {
		row := b[i*nh : (i+1)*nh]
		out := c[i*nh : (i+1)*nh]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float32
		for j, v := range row {
			e := mathOps.Exp(v - maxv)
			out[j] = e
			sum += e
		}
		if sum == 0 {
			uniform := float32(1) / float32(nh)
			for j := range out {
				out[j] = uniform
			}
			continue
		}
		inv := mathOps.Recip(sum)
		for j := range out {
			out[j] *= inv
		}
	}
}

// firstIterationCoefficients performs Eq. 5 for the first routing
// iteration, where bd — the logits — is still all zero: every row of
// cd is the same, so one row is computed and replicated. That row is
// softmaxRows' own output on zero logits, whatever bits the math in
// use gives it (PE math without recovery does not return 1/H), not a
// constant.
//
//pimcaps:hotpath
func firstIterationCoefficients(mathOps RoutingMath, cd, bd []float32, nh int) {
	softmaxRows(mathOps, cd[:nh], bd[:nh], 1, nh)
	for n := nh; n < len(cd); n *= 2 {
		copy(cd[n:], cd[:n])
	}
}

// squashInto applies Eq. 3 with the given math, writing into dst
// (which may alias src): v = (|s|²/(1+|s|²))·(s/|s|), evaluated as
// |s|²·recip(1+|s|²)·invsqrt(|s|²)·s.
//
//pimcaps:hotpath
func squashInto(mathOps RoutingMath, dst, src []float32) {
	var sq float32
	for _, v := range src {
		sq += v * v
	}
	if sq == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	scale := sq * mathOps.Recip(1+sq) * mathOps.InvSqrt(sq)
	for i := range src {
		dst[i] = src[i] * scale
	}
}
