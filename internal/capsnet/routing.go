package capsnet

import (
	"fmt"

	"pimcapsnet/internal/tensor"
)

// RoutingMode selects how the agreement logits b_ij are scoped.
type RoutingMode int

const (
	// RoutePerSample keeps independent routing coefficients per batch
	// element — the original dynamic routing of Sabour et al., and
	// the mode the accuracy experiments use.
	RoutePerSample RoutingMode = iota
	// RouteBatchShared aggregates the agreement over the whole batch
	// (Alg. 1 / Eq. 4 of the PIM-CapsNet paper, which batches input
	// sets "to avoid the local optimal solution of the routing
	// coefficients"). This is the formulation whose B-dimension
	// aggregation the in-memory design distributes.
	RouteBatchShared
)

// String implements fmt.Stringer.
func (m RoutingMode) String() string {
	switch m {
	case RoutePerSample:
		return "per-sample"
	case RouteBatchShared:
		return "batch-shared"
	}
	return fmt.Sprintf("RoutingMode(%d)", int(m))
}

// RoutingResult carries the outputs of a routing-procedure run: the
// high-level capsules v (shape B×H×CH) and the final routing
// coefficients c (shape B×L×H; under RouteBatchShared every batch
// slice holds the same shared coefficients).
type RoutingResult struct {
	V *tensor.Tensor // B×H×CH high-level capsules (Eq. 3 outputs)
	C *tensor.Tensor // B×L×H routing coefficients after the last iteration
	B *tensor.Tensor // B×L×H accumulated agreement logits
}

// DynamicRouting executes the dynamic routing procedure on
// precomputed prediction vectors û of shape B×L×H×CH for the given
// number of iterations, using mathOps for the special functions, with
// per-sample coefficients (Sabour et al.).
func DynamicRouting(preds *tensor.Tensor, iterations int, mathOps RoutingMath) RoutingResult {
	return DynamicRoutingMode(preds, iterations, mathOps, RoutePerSample)
}

// DynamicRoutingShared executes Algorithm 1 exactly as the PIM-CapsNet
// paper states it, with the agreement of Eq. 4 accumulated over all
// input sets k.
func DynamicRoutingShared(preds *tensor.Tensor, iterations int, mathOps RoutingMath) RoutingResult {
	return DynamicRoutingMode(preds, iterations, mathOps, RouteBatchShared)
}

// DynamicRoutingMode is the general entry point. Per iteration it
// performs, exactly as the paper's Fig. 3 flow:
//
//	c_ij ← softmax_j(b_ij)                 (Eq. 5, step 6)
//	s_j^k ← Σ_i û_j|i^k · c_ij             (Eq. 2, step 2)
//	v_j^k ← squash(s_j^k)                  (Eq. 3, step 3)
//	b_ij ← Σ_k v_j^k · û_j|i^k + b_ij      (Eq. 4, steps 4–5)
//
// where the Σ_k of Eq. 4 spans the batch under RouteBatchShared and a
// single sample under RoutePerSample. The agreement update is skipped
// after the final iteration (it would only feed a next iteration that
// never runs), matching reference implementations.
func DynamicRoutingMode(preds *tensor.Tensor, iterations int, mathOps RoutingMath, mode RoutingMode) RoutingResult {
	d := openChunker()
	defer d.pool.close()
	return dynamicRouting(d, preds, iterations, mathOps, mode)
}

// dynamicRouting validates preds, allocates fresh Eq. 2–5 state for it
// and runs the routing loop over d's workers.
func dynamicRouting(d *chunker, preds *tensor.Tensor, iterations int, mathOps RoutingMath, mode RoutingMode) RoutingResult {
	if preds.Rank() != 4 {
		panic(fmt.Sprintf("capsnet: DynamicRouting wants B×L×H×CH predictions, got %v", preds.Shape()))
	}
	if iterations < 1 {
		panic("capsnet: DynamicRouting needs at least one iteration")
	}
	nb, nl, nh, ch := preds.Dim(0), preds.Dim(1), preds.Dim(2), preds.Dim(3)
	b := tensor.New(nb, nl, nh)
	c := tensor.New(nb, nl, nh)
	v := tensor.New(nb, nh, ch)
	r := &routing{
		preds: preds.Data(), b: b.Data(), c: c.Data(), v: v.Data(), s: make([]float32, nb*nh*ch),
		nb: nb, nl: nl, nh: nh, ch: ch, math: mathOps,
		agreeV: make([][]float32, d.workers),
	}
	for w := range r.agreeV {
		r.agreeV[w] = make([]float32, agreeReplicaLen(nh, ch))
	}
	r.bindKernels()
	r.run(d, mode, iterations, nil, nil)
	return RoutingResult{V: v, C: c, B: b}
}

// routing is the state of one run of Alg. 1 over precomputed
// prediction vectors — û, the logits b, coefficients c, capsules v and
// pre-squash sums s of Eqs. 2–5 — and the package's one routing loop
// (run). The buffers may be longer than the run needs (a scratch sizes
// them for its batch capacity); nb says how many samples they hold.
type routing struct {
	preds, b, c, v, s []float32
	nb, nl, nh, ch    int
	math              RoutingMath

	// agreeV is each chunk worker's agreeReplicaLen(nh, ch) floats of
	// scratch for agreementRows.
	agreeV [][]float32

	// shared says whether the logits are one matrix for the batch; run
	// sets it, agreeRange reads it.
	shared bool

	// The chunk kernels as method values, bound once by bindKernels:
	// they read the fields above at call time, so rebinding the buffers
	// between runs does not invalidate them and a dispatch allocates no
	// closure.
	softmaxFn, aggFn, agreeFn func(w, lo, hi int)
}

func (r *routing) bindKernels() {
	r.softmaxFn = r.softmaxRange
	r.aggFn = r.aggRange
	r.agreeFn = r.agreeRange
}

// softmaxRange performs Eq. 5 for a chunk: of the samples when every
// sample has its own logits, of the one matrix's nl rows when the batch
// shares it.
//
//pimcaps:hotpath
func (r *routing) softmaxRange(_, lo, hi int) {
	if !r.shared {
		lo, hi = lo*r.nl, hi*r.nl
	}
	softmaxRows(r.math, r.c[lo*r.nh:hi*r.nh], r.b[lo*r.nh:hi*r.nh], hi-lo, r.nh)
}

// aggRange performs Eqs. 2–3 for samples [lo, hi), every output j of
// each, so each s_kj sums i ascending from +0 in one aggregateRows row.
//
//pimcaps:hotpath
func (r *routing) aggRange(_, lo, hi int) {
	aggregateRange(r.math, r.preds, r.c, r.s, r.v, r.nl, r.nh, r.ch, lo, hi, 0, r.nh)
}

// agreeRange performs Eq. 4 for a chunk: of the samples when every
// sample has its own logits, of the high-level capsules when the batch
// shares one matrix (all samples, k ascending per entry).
//
//pimcaps:hotpath
func (r *routing) agreeRange(w, lo, hi int) {
	if r.shared {
		agreementRange(r.preds, r.v, r.b, 0, r.nl, r.nh, r.ch, 0, r.nb, lo, hi)
		return
	}
	agreementRows(r.preds, r.v, r.b, r.agreeV[w], r.nl, r.nh, r.ch, lo*r.nl, hi*r.nl)
}

// run executes iterations of the routing procedure over d's workers
// and reports whether cancel stopped it between iterations (the state
// is then partial). Each stage chunks over whole samples, except the
// batch-shared matrix's softmax (its rows) and agreement (its
// high-level capsules). So at batch 1 the per-sample stages run inline
// on the caller: measured, a second worker's wake cost what its half
// of the softmax or agreement saved, and an aggregate split by output
// capsule ran slower on two cores than on one. Every accumulation
// order is independent of where the chunk edges fall, so results are
// bit-identical to a serial loop.
//
//pimcaps:hotpath
func (r *routing) run(d *chunker, mode RoutingMode, iterations int, cancel CancelCheck, st StageTimer) (aborted bool) {
	nb, nl, nh, ch := r.nb, r.nl, r.nh, r.ch
	bd := r.b[:nb*nl*nh]
	cd := r.c[:nb*nl*nh]
	sd := r.s[:nb*nh*ch]
	clear(bd) // logits start at zero, as a fresh tensor would

	// The chunked units of Eqs. 5 and 4: samples, or the shared
	// matrix's rows and high-level capsules.
	softUnits, agreeUnits := nb, nb
	r.shared = mode == RouteBatchShared
	if r.shared {
		softUnits, agreeUnits = nl, nh
	}

	for it := 0; it < iterations; it++ {
		// Cooperative cancellation: polled between iterations (including
		// before the first), so an all-expired batch stops burning the
		// most expensive stage of the pass and the arena goes straight
		// back to the pool via Release.
		if cancel != nil && cancel() {
			return true
		}
		iterEnd := beginStage(st, StageRoutingIteration, it)

		// Step 4/6: routing coefficients from agreement logits. Rows are
		// independent, so they chunk over the workers.
		end := beginStage(st, StageRoutingSoftmax, it)
		if it == 0 {
			firstIterationCoefficients(r.math, cd, bd, nh)
		} else {
			d.runChunks(softUnits, r.softmaxFn)
			if mode == RouteBatchShared {
				for k := 1; k < nb; k++ {
					copy(cd[k*nl*nh:(k+1)*nl*nh], cd[:nl*nh])
				}
			}
		}
		endStage(end)

		// Step 5 (Eq. 2) + Step 6 (Eq. 3): weighted aggregation over L
		// capsules and squash, chunked over the samples (workers write
		// disjoint s/v regions — see kernels.go).
		end = beginStage(st, StageRoutingAggregate, it)
		clear(sd)
		d.runChunks(nb, r.aggFn)
		endStage(end)

		if it == iterations-1 {
			endStage(iterEnd)
			break
		}

		// Step 7 (Eq. 4): agreement accumulation. Per-sample logits are
		// disjoint entries with one increment each, so they chunk over
		// the samples as the softmax does; the paper's batch-shared Σ_k
		// accumulates into one matrix, so it chunks over the high-level
		// capsules, each (i, j) entry summing k ascending within one
		// chunk.
		end = beginStage(st, StageRoutingAgreement, it)
		d.runChunks(agreeUnits, r.agreeFn)
		endStage(end)
		endStage(iterEnd)
	}
	if mode == RouteBatchShared {
		for k := 1; k < nb; k++ {
			copy(bd[k*nl*nh:(k+1)*nl*nh], bd[:nl*nh])
		}
	}
	return false
}

// PredictionVectors computes Eq. 1 for a batch: û_j|i^k = u_i^k × W_ij,
// where u has shape B×L×CL and w has shape L×H×CL×CH. The result has
// shape B×L×H×CH.
func PredictionVectors(u, w *tensor.Tensor) *tensor.Tensor {
	d := openChunker()
	defer d.pool.close()
	return predictionVectors(d, u, w)
}

func predictionVectors(d *chunker, u, w *tensor.Tensor) *tensor.Tensor {
	if u.Rank() != 3 {
		panic(fmt.Sprintf("capsnet: PredictionVectors wants B×L×CL input, got %v", u.Shape()))
	}
	if w.Rank() != 4 {
		panic(fmt.Sprintf("capsnet: PredictionVectors wants L×H×CL×CH weights, got %v", w.Shape()))
	}
	nb, nl, cl := u.Dim(0), u.Dim(1), u.Dim(2)
	if w.Dim(0) != nl || w.Dim(2) != cl {
		panic(fmt.Sprintf("capsnet: weight shape %v incompatible with input %v", w.Shape(), u.Shape()))
	}
	nh, ch := w.Dim(1), w.Dim(3)
	out := tensor.New(nb, nl, nh, ch)
	ud, wd, od := u.Data(), w.Data(), out.Data()
	// Shard contiguously over the L capsules: each (k, i) output row is
	// written by exactly one worker, and a worker walks W_ij once per
	// pair of samples rather than once per sample (see kernels.go).
	d.runChunks(nl, func(_, lo, hi int) {
		predictionVectorsRange(ud, wd, od, nb, nl, cl, nh, ch, lo, hi)
	})
	return out
}
