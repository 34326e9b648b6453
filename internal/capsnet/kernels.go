package capsnet

import (
	"fmt"

	"pimcapsnet/internal/tensor"
)

// Range kernels for the routing procedure's three hot loops (Eq. 1
// prediction vectors, Eq. 2+3 aggregation+squash, Eq. 4 agreement):
// one kernel per equation, called from the one routing loop
// (routing.go) and the Eq. 1 dispatches. Each works on a
// contiguous range of its shard dimension — low-level capsules for
// Eq. 1, a samples × high-level-capsules rectangle for the other two,
// or for per-sample Eq. 4 a run of the flattened (sample, low-level
// capsule) rows — and every per-output-element accumulation runs in
// the same order (d, then i or k ascending) however the range is split
// or tiled, which is what keeps results bit-identical to a serial
// sample-at-a-time loop wherever the chunk edges fall and at any batch
// size.
//
// Eqs. 1, 2 and 4 here and Eq. 5 in math.go each have two bodies: the
// Go loops and, where tensor.Packed reports AVX2 and ch divides into
// whole vectors, packed micro-kernels (kernels_amd64.s) whose vector
// lanes are independent sums of the Go loop — the ch contiguous output
// elements for Eqs. 1 and 2, eight consecutive (i, j) pairs for Eq. 4
// — with one rounded multiply and one rounded add per term in the same
// order, so either body gives the same bits. The Go loops are the path
// off amd64 and the oracle the packed bodies are tested against. The
// wrappers here check every length first and hand a kernel exactly the
// region it may touch.

// aggregateRange performs Eq. 2 (s_j ← Σ_i c_ij·û_j|i) and Eq. 3
// (v_j ← squash(s_j)) for samples [klo, khi) × high-level capsules
// [jlo, jhi): the routing loop passes one sample and a run of its
// capsules per call, the serial test reference the whole nb × nh grid.
// sd must be pre-zeroed for that rectangle. Per (k, j) the sum over i
// ascends whatever the rectangle, and a term whose c_ij is ±0 is
// skipped, in the Go loop and in aggregateRows (one sample's
// multiply-accumulate on the packed path) alike. The Go
// multiply-accumulate loop ranges over up with a capped sp slice:
// under this function's register pressure a plain counted loop spills
// its induction variable to the stack on every iteration, which costs
// ~45% on the whole kernel. For the same
// reason the rectangle's rows of c, û and s are sliced once per (k, i)
// and indexed from 0: with the k and jlo offsets carried into the j
// loop it ran 4.6 ms against 3.3–3.5 (rp3872, batch 8, one core).
//
//pimcaps:hotpath
func aggregateRange(mathOps RoutingMath, pd, cd, sd, vd []float32, nl, nh, ch, klo, khi, jlo, jhi int) {
	checkAggregate(len(pd), len(cd), len(sd), len(vd), nl, nh, ch, klo, khi, jlo, jhi)
	usePacked := tensor.Packed() && ch > 0 && ch%8 == 0 && nl > 0 && jlo < jhi
	for k := klo; k < khi; k++ {
		srow := sd[(k*nh+jlo)*ch : (k*nh+jhi)*ch]
		if usePacked {
			first, last := k*nl, k*nl+nl-1
			aggregateRows(srow, cd[first*nh+jlo:last*nh+jhi], pd[(first*nh+jlo)*ch:(last*nh+jhi)*ch],
				nl, jhi-jlo, ch, nh, nh*ch)
		} else {
			for i := 0; i < nl; i++ {
				r := k*nl + i
				cs := cd[r*nh+jlo : r*nh+jhi]
				urow := pd[(r*nh+jlo)*ch : (r*nh+jhi)*ch]
				for jj, cij := range cs {
					if cij == 0 {
						continue
					}
					up := urow[jj*ch : (jj+1)*ch]
					sp := srow[jj*ch : (jj+1)*ch : (jj+1)*ch]
					for d, u := range up[:len(sp)] {
						sp[d] += cij * u
					}
				}
			}
		}
		for j := jlo; j < jhi; j++ {
			off := (k*nh + j) * ch
			squashInto(mathOps, vd[off:off+ch], sd[off:off+ch])
		}
	}
}

// checkAggregate is aggregateRange's contract: the rectangle lies
// inside nb × nh for the batch the buffers hold, and û (np floats), c
// (nc) and s, v (ns, nv) reach its last sample.
//
//pimcaps:hotpath
func checkAggregate(np, nc, ns, nv, nl, nh, ch, klo, khi, jlo, jhi int) {
	if nl < 0 || nh < 0 || ch < 0 || klo < 0 || klo > khi || jlo < 0 || jlo > jhi || jhi > nh {
		panic(fmt.Sprintf("capsnet: aggregateRange rectangle [%d,%d)×[%d,%d) outside L=%d H=%d CH=%d", klo, khi, jlo, jhi, nl, nh, ch))
	}
	if np < khi*nl*nh*ch {
		panic(fmt.Sprintf("capsnet: aggregateRange û length %d, want ≥ %d", np, khi*nl*nh*ch))
	}
	if nc < khi*nl*nh {
		panic(fmt.Sprintf("capsnet: aggregateRange c length %d, want ≥ %d", nc, khi*nl*nh))
	}
	if ns < khi*nh*ch || nv < khi*nh*ch {
		panic(fmt.Sprintf("capsnet: aggregateRange s, v lengths %d, %d, want ≥ %d", ns, nv, khi*nh*ch))
	}
}

// agreementRange performs Eq. 4 (b_ij ← b_ij + û_j|i·v_j) for samples
// [klo, khi) × high-level capsules [jlo, jhi). Sample k's logits are
// the nl×nh matrix at bd[k*bstride:]: bstride = nl·nh gives every
// sample its own rows, where each (k, i, j) entry receives exactly one
// increment and any rectangle is as good as another; bstride = 0 is
// the batch-shared matrix of Alg. 1, whose Σ_k must ascend per entry —
// so its callers pass all samples and split on capsules only.
//
//pimcaps:hotpath
func agreementRange(pd, vd, bd []float32, bstride, nl, nh, ch, klo, khi, jlo, jhi int) {
	for k := klo; k < khi; k++ {
		base := k * nl * nh * ch
		vbase := k * nh * ch
		brow := bd[k*bstride : k*bstride+nl*nh]
		for i := 0; i < nl; i++ {
			pbase := base + i*nh*ch
			for j := jlo; j < jhi; j++ {
				up := pd[pbase+j*ch : pbase+(j+1)*ch]
				vp := vd[vbase+j*ch : vbase+(j+1)*ch]
				var dot float32
				for d, u := range up[:len(vp)] {
					dot += u * vp[d]
				}
				brow[i*nh+j] += dot
			}
		}
	}
}

// agreementRows performs per-sample Eq. 4 for rows [lo, hi) of the
// flattened nb·nl × nh logit matrix — row k·nl + i is low-level capsule
// i of sample k, the rows softmaxRows chunks over. Each (k, i, j) entry
// takes exactly one increment, so any split of the rows gives the same
// bits. Per sample the range touches, the rows whose (i, j) pairs fill
// whole groups of eight go to agreePairs8 where the packed path is
// on and ch%4 == 0, through vt, the caller's agreeReplicaLen(nh, ch)
// floats of scratch for fillAgreeReplica; the rest, and every row
// otherwise, to agreementRange as a one-sample batch that starts at
// the row.
//
//pimcaps:hotpath
func agreementRows(pd, vd, bd, vt []float32, nl, nh, ch, lo, hi int) {
	if lo == hi {
		return
	}
	checkAgreementRows(len(pd), len(vd), len(bd), len(vt), nl, nh, ch, lo, hi)
	usePacked := tensor.Packed() && ch > 0 && ch%4 == 0
	whole := 8 / gcd8(nh) // rows whose pairs make whole groups of eight
	for lo < hi {
		k := lo / nl
		end := min(hi, (k+1)*nl)
		vk := vd[k*nh*ch : (k+1)*nh*ch]
		if rows := (end - lo) / whole * whole; usePacked && rows > 0 {
			fillAgreeReplica(vt, vk, nh, ch)
			p0, p1 := lo*nh, (lo+rows)*nh
			agreePairs8(bd[p0:p1], pd[p0*ch:p1*ch], vt, ch)
			lo += rows
		}
		agreementRange(pd[lo*nh*ch:end*nh*ch], vk, bd[lo*nh:end*nh], 0, end-lo, nh, ch, 0, 1, 0, nh)
		lo = end
	}
}

// checkAgreementRows is agreementRows' contract: the rows lie inside
// some batch the buffers hold, and vt is the replica scratch.
//
//pimcaps:hotpath
func checkAgreementRows(np, nv, nb, nvt, nl, nh, ch, lo, hi int) {
	if nl <= 0 || nh <= 0 || ch < 0 || lo < 0 || lo > hi {
		panic(fmt.Sprintf("capsnet: agreementRows rows [%d,%d) outside L=%d H=%d CH=%d", lo, hi, nl, nh, ch))
	}
	if np < hi*nh*ch {
		panic(fmt.Sprintf("capsnet: agreementRows û length %d, want ≥ %d", np, hi*nh*ch))
	}
	if samples := (hi + nl - 1) / nl; nv < samples*nh*ch {
		panic(fmt.Sprintf("capsnet: agreementRows v length %d, want ≥ %d", nv, samples*nh*ch))
	}
	if nb < hi*nh {
		panic(fmt.Sprintf("capsnet: agreementRows b length %d, want ≥ %d", nb, hi*nh))
	}
	if nvt != agreeReplicaLen(nh, ch) {
		panic(fmt.Sprintf("capsnet: agreementRows replica length %d, want %d", nvt, agreeReplicaLen(nh, ch)))
	}
}

// gcd8 is gcd(8, n) for n > 0.
func gcd8(n int) int { return min(n&-n, 8) }

// agreeReplicaLen is the length of agreePairs8's v replica: lcm(8, nh)
// rows of ch, the period after which a walk of eight pairs at a time
// meets the same high-level capsules again.
func agreeReplicaLen(nh, ch int) int { return 8 / gcd8(nh) * nh * ch }

// fillAgreeReplica lays one sample's v (nh rows of ch, ch%4 == 0) out
// in the order agreePairs8 reads it: for each group of eight
// consecutive pairs q..q+7 of the lcm(8, nh) in a period and each four
// values of d, four vectors, the r-th holding those four values of
// v_{(q+r) mod nh} and then of v_{(q+r+4) mod nh}.
//
//pimcaps:hotpath
func fillAgreeReplica(vt, vk []float32, nh, ch int) {
	o := 0
	for q := 0; o < len(vt); q += 8 {
		for d := 0; d < ch; d += 4 {
			for r := q; r < q+4; r++ {
				copy(vt[o:o+4], vk[r%nh*ch+d:])
				copy(vt[o+4:o+8], vk[(r+4)%nh*ch+d:])
				o += 8
			}
		}
	}
}

// predictionVectorsRange computes Eq. 1 (û_j|i^k = u_i^k × W_ij) for
// low-level capsules [lo, hi), storing every output element of those
// capsules' rows (od need not be cleared first).
//
// Per capsule i the nh cl×ch blocks W_ij (8×16 in every model this
// repository ships: 5 KB per capsule, L1-resident) are walked once per
// group of samples — four on the packed path (predictionVectorsPacked),
// a pair in the Go loop below: the W_ij reuse across the input set
// that makes micro-batched serving cheaper per request, the
// L-dimension row of the paper's Table 2. Tiling only changes which
// outputs are computed together: every output element is its own sum
// over d ascending from +0, so the result does not depend on the batch
// size, on how a sample was grouped, on where an element falls in a
// tile, or on which path ran.
//
// A u row holding an exact zero goes through predictionRowSkipZero
// instead. For finite weights the two agree bit for bit (a sum that
// starts at +0 is never −0, so adding ±0 leaves it unchanged), but a
// skipped term also ignores a non-finite weight, and the fault
// campaign's flipped weights must keep poisoning exactly the outputs
// they always did.
//
//pimcaps:hotpath
func predictionVectorsRange(ud, wd, od []float32, nb, nl, cl, nh, ch, lo, hi int) {
	if nb < 0 || cl < 0 || nh < 0 || ch < 0 || lo < 0 || lo > hi || hi > nl {
		panic(fmt.Sprintf("capsnet: predictionVectorsRange capsules [%d,%d) outside B=%d L=%d CL=%d H=%d CH=%d", lo, hi, nb, nl, cl, nh, ch))
	}
	if len(ud) < nb*nl*cl {
		panic(fmt.Sprintf("capsnet: predictionVectorsRange u length %d, want ≥ %d", len(ud), nb*nl*cl))
	}
	if len(wd) < hi*nh*cl*ch {
		panic(fmt.Sprintf("capsnet: predictionVectorsRange W length %d, want ≥ %d", len(wd), hi*nh*cl*ch))
	}
	if len(od) < nb*nl*nh*ch {
		panic(fmt.Sprintf("capsnet: predictionVectorsRange û length %d, want ≥ %d", len(od), nb*nl*nh*ch))
	}
	if tensor.Packed() && ch > 0 && ch%8 == 0 && cl > 0 && nh > 0 {
		predictionVectorsPacked(ud, wd, od, nb, nl, cl, nh, ch, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		wi := wd[i*nh*cl*ch : (i+1)*nh*cl*ch]
		k := 0
		for ; k+2 <= nb; k += 2 {
			u0 := ud[(k*nl+i)*cl : (k*nl+i+1)*cl]
			u1 := ud[((k+1)*nl+i)*cl : ((k+1)*nl+i+1)*cl]
			o0 := od[(k*nl+i)*nh*ch : (k*nl+i+1)*nh*ch]
			o1 := od[((k+1)*nl+i)*nh*ch : ((k+1)*nl+i+1)*nh*ch]
			if hasZero(u0) || hasZero(u1) {
				predictionRowSkipZero(u0, wi, o0, ch)
				predictionRowSkipZero(u1, wi, o1, ch)
				continue
			}
			predictionRowPair(u0, u1, wi, o0, o1, ch)
		}
		if k < nb {
			u0 := ud[(k*nl+i)*cl : (k*nl+i+1)*cl]
			o0 := od[(k*nl+i)*nh*ch : (k*nl+i+1)*nh*ch]
			if hasZero(u0) {
				predictionRowSkipZero(u0, wi, o0, ch)
			} else {
				predictionRow(u0, wi, o0, ch)
			}
		}
	}
}

// predictionVectorsPacked is predictionVectorsRange on the packed
// micro-kernels: per capsule, four samples at a time share one walk of
// W_ij (predTile4), the nb%4 left over go singly (predTile1), and a u
// row holding an exact zero still takes predictionRowSkipZero — with
// it the rest of its group of four, singly.
//
//pimcaps:hotpath
func predictionVectorsPacked(ud, wd, od []float32, nb, nl, cl, nh, ch, lo, hi int) {
	for i := lo; i < hi; i++ {
		wi := wd[i*nh*cl*ch : (i+1)*nh*cl*ch]
		k := 0
		for ; k+4 <= nb; k += 4 {
			first, last := k*nl+i, (k+3)*nl+i
			us := ud[first*cl : (last+1)*cl]
			if hasZero(us[:cl]) || hasZero(us[nl*cl:][:cl]) || hasZero(us[2*nl*cl:][:cl]) || hasZero(us[3*nl*cl:]) {
				for r := first; r <= last; r += nl {
					predictionRowPacked(ud[r*cl:(r+1)*cl], wi, od[r*nh*ch:(r+1)*nh*ch], nh, ch)
				}
				continue
			}
			predTile4(us, wi, od[first*nh*ch:(last+1)*nh*ch], nl*cl, nl*nh*ch, nh, cl, ch)
		}
		for ; k < nb; k++ {
			r := k*nl + i
			predictionRowPacked(ud[r*cl:(r+1)*cl], wi, od[r*nh*ch:(r+1)*nh*ch], nh, ch)
		}
	}
}

//pimcaps:hotpath
func predictionRowPacked(u0, wi, o0 []float32, nh, ch int) {
	if hasZero(u0) {
		predictionRowSkipZero(u0, wi, o0, ch)
		return
	}
	predTile1(u0, wi, o0, nh, len(u0), ch)
}

//pimcaps:hotpath
func hasZero(xs []float32) bool {
	for _, v := range xs {
		if v == 0 {
			return true
		}
	}
	return false
}

// predictionRowPair is predictionVectorsRange's register tile: for two
// samples' u rows and one capsule's weights w (nh blocks of
// len(u0)×ch) it computes both output rows, 2 samples × 3 outputs at a
// time, so a step over d loads 5 values for 6 multiply-adds and the
// six sums are independent chains. Six is the most this compiler keeps
// in registers (see tensor.dot2x3); predTile4 advances 64. The ch%3
// outputs left over take a 2×1 tile.
//
//pimcaps:hotpath
func predictionRowPair(u0, u1, w, o0, o1 []float32, ch int) {
	cl := len(u0)
	u1 = u1[:cl]
	for base, wbase := 0, 0; base < len(o0); base, wbase = base+ch, wbase+cl*ch {
		wm := w[wbase : wbase+cl*ch]
		p0 := o0[base : base+ch]
		p1 := o1[base : base+ch]
		e := 0
		for ; e+3 <= ch; e += 3 {
			var s00, s01, s02, s10, s11, s12 float32
			off := e
			for d, a0 := range u0 {
				a1 := u1[d]
				x := wm[off : off+3 : off+3]
				s00 += a0 * x[0]
				s10 += a1 * x[0]
				s01 += a0 * x[1]
				s11 += a1 * x[1]
				s02 += a0 * x[2]
				s12 += a1 * x[2]
				off += ch
			}
			p0[e], p0[e+1], p0[e+2] = s00, s01, s02
			p1[e], p1[e+1], p1[e+2] = s10, s11, s12
		}
		for ; e < ch; e++ {
			var s0, s1 float32
			off := e
			for d, a0 := range u0 {
				x := wm[off]
				s0 += a0 * x
				s1 += u1[d] * x
				off += ch
			}
			p0[e], p1[e] = s0, s1
		}
	}
}

// predictionRow is the odd sample's edge of the tile: one sample × 4
// outputs, each summed in the same order.
//
//pimcaps:hotpath
func predictionRow(u0, w, o0 []float32, ch int) {
	cl := len(u0)
	for base, wbase := 0, 0; base < len(o0); base, wbase = base+ch, wbase+cl*ch {
		wm := w[wbase : wbase+cl*ch]
		p0 := o0[base : base+ch]
		e := 0
		for ; e+4 <= ch; e += 4 {
			var s0, s1, s2, s3 float32
			off := e
			for _, a0 := range u0 {
				x := wm[off : off+4 : off+4]
				s0 += a0 * x[0]
				s1 += a0 * x[1]
				s2 += a0 * x[2]
				s3 += a0 * x[3]
				off += ch
			}
			p0[e], p0[e+1], p0[e+2], p0[e+3] = s0, s1, s2, s3
		}
		for ; e < ch; e++ {
			var s0 float32
			off := e
			for _, a0 := range u0 {
				s0 += a0 * wm[off]
				off += ch
			}
			p0[e] = s0
		}
	}
}

// predictionRowSkipZero computes one sample's output row the way the
// whole kernel used to: accumulate into the cleared row with d
// ascending, skipping the terms whose u entry is exactly zero.
//
//pimcaps:hotpath
func predictionRowSkipZero(u0, w, o0 []float32, ch int) {
	cl := len(u0)
	clear(o0)
	for base, wbase := 0, 0; base < len(o0); base, wbase = base+ch, wbase+cl*ch {
		ov := o0[base : base+ch]
		for d, a0 := range u0 {
			if a0 == 0 {
				continue
			}
			wrow := w[wbase+d*ch : wbase+(d+1)*ch]
			for e, x := range wrow {
				ov[e] += a0 * x
			}
		}
	}
}
