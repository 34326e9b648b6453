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
	"pimcapsnet/internal/tensor"
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
// may alias b. ExactMath has a packed body (softmaxRowsPacked) with
// the bits of this loop for rows in eights; the loop takes the nl%8
// left over, every other math, and everything where that body is off.
//
//pimcaps:hotpath
func softmaxRows(mathOps RoutingMath, c, b []float32, nl, nh int) {
	if _, exact := mathOps.(ExactMath); exact && expProbed && tensor.PackedFMA() && nh > 0 && nh <= softmaxMaxH {
		n := (nl &^ 7) * nh
		softmaxRowsPacked(c[:n], b[:n], nh)
		c, b, nl = c[n:], b[n:], nl&7
	}
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

// softmaxTile is how many floats of rows softmaxRowsPacked takes
// through its three passes at a time: 16 KB, so a tile written by one
// pass is still in L1 for the next. softmaxMaxH bounds its on-stack
// row table.
const (
	softmaxTile = 4096
	softmaxMaxH = 64
)

// softmaxRowsPacked is softmaxRows for ExactMath over rows in eights
// (len(c)%(8·nh) == 0, nh ≤ softmaxMaxH), in three packed passes over
// each tile of rows (kernels_amd64.s): every row's running maximum and
// out = b − max, the exponential of the whole tile in place, then
// every row's sum, reciprocal (or the sum == 0 uniform row) and scale.
// The operations on each element and their order within a row are the
// Go loop's.
//
//pimcaps:hotpath
func softmaxRowsPacked(c, b []float32, nh int) {
	var table [8 * softmaxMaxH]int32
	rowOf := table[:8*nh] // the row, of eight, of each float of a group
	for r := 0; r < 8; r++ {
		for j := 0; j < nh; j++ {
			rowOf[r*nh+j] = int32(r)
		}
	}
	tile := max(softmaxTile/nh&^7, 8) * nh
	for lo := 0; lo < len(c); lo += tile {
		hi := min(lo+tile, len(c))
		out := c[lo:hi]
		softmaxShift8(out, b[lo:hi], rowOf, nh)
		expInPlace(out)
		softmaxScale8(out, rowOf, nh)
	}
}

// expInPlace replaces every x with ExactMath's Exp(x): by expPacked8
// for the groups of eight it takes, by the scalar function for what it
// stops at — a group holding a value outside [−700, 700] or a NaN, or
// the len(x)%8 at the end.
//
//pimcaps:hotpath
func expInPlace(x []float32) {
	for len(x) > 0 {
		x = x[expPacked8(x):]
		n := min(len(x), 8)
		for i, v := range x[:n] {
			x[i] = ExactMath{}.Exp(v)
		}
		x = x[n:]
	}
}

// expProbed records that, at init, expPacked8 returned math.Exp's bits
// on a fixed probe vector. The kernel mirrors the instruction sequence
// of package math's amd64 exp, which a Go release may change; where the
// probe disagrees (or the CPU lacks AVX2 or FMA) Eq. 5 stays on the Go
// loop.
var expProbed = tensor.PackedFMA() && expProbe()

func expProbe() bool {
	// Both ends of the kernel's range, the float32 underflow threshold,
	// ±0, the smallest normal and denormal magnitudes, values either
	// side of every multiple of ln 2/2 (where k steps) down to −32, and
	// a run of ordinary logit differences.
	probe := []float32{-700, 700, -699.99994, 699.99994, -103.97208, -103.972084, -87.33655, -87.33654,
		0, float32(math.Copysign(0, -1)), 1.1754944e-38, -1.1754944e-38, 1e-45, -1e-45, 1, -1}
	for k := 1; k <= 92; k++ {
		edge := float32(-0.34657359027997264 * float64(k))
		probe = append(probe, math.Nextafter32(edge, 0), edge, math.Nextafter32(edge, -100))
	}
	for v := float32(-0.0123); v > -24; v *= 1.37 {
		probe = append(probe, v)
	}
	for len(probe)%8 != 0 {
		probe = append(probe, -float32(len(probe)))
	}
	got := append([]float32(nil), probe...)
	if expPacked8(got) != len(got) {
		return false
	}
	for i, x := range probe {
		if math.Float32bits(got[i]) != math.Float32bits(ExactMath{}.Exp(x)) {
			return false
		}
	}
	return true
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
