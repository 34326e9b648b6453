package capsnet

import (
	"fmt"
	"runtime"

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
	return DynamicRoutingTimed(preds, iterations, mathOps, mode, nil)
}

// DynamicRoutingTimed is DynamicRoutingMode with per-stage
// observation: each iteration is bracketed as StageRoutingIteration
// (with its index) and its softmax, aggregate+squash, and agreement
// phases reported as nested sub-stages — the production counterpart
// of the per-phase timelines the HMC co-simulator emits. A nil timer
// is the untimed fast path; results are identical either way.
func DynamicRoutingTimed(preds *tensor.Tensor, iterations int, mathOps RoutingMath, mode RoutingMode, timer StageTimer) RoutingResult {
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
	s := tensor.New(nb, nh, ch)
	pd := preds.Data()
	bd, cd, vd, sd := b.Data(), c.Data(), v.Data(), s.Data()

	// Pick the shard dimension once per routing run with the paper's
	// execution-score model and surface it as a zero-duration marker
	// stage (iteration = the chosen Partition value) so stage traces
	// record which way the workload was split.
	dim := ChoosePartition(PartitionAuto, nb, nl, nh, ch, runtime.GOMAXPROCS(0))
	endStage(beginStage(timer, StageRoutingPartition, int(dim)))

	// shardN is the extent of the chosen shard dimension; softRows the
	// rows Eq. 5 computes (the shared matrix is sample 0's).
	shardN, softRows, bstride := nb, nb*nl, nl*nh
	if dim == PartitionH {
		shardN = nh
	}
	if mode == RouteBatchShared {
		softRows, bstride = nl, 0
	}
	workers := maxWorkers(shardN)

	for it := 0; it < iterations; it++ {
		iterEnd := beginStage(timer, StageRoutingIteration, it)

		// Step 4/6: routing coefficients from agreement logits. Rows are
		// independent, so they chunk over the workers whatever the shard
		// dimension is.
		end := beginStage(timer, StageRoutingSoftmax, it)
		if it == 0 {
			firstIterationCoefficients(mathOps, cd, bd, nh)
		} else {
			parallelChunks(softRows, maxWorkers(softRows), func(_, lo, hi int) {
				softmaxRows(mathOps, cd[lo*nh:hi*nh], bd[lo*nh:hi*nh], hi-lo, nh)
			})
			if mode == RouteBatchShared {
				for k := 1; k < nb; k++ {
					copy(cd[k*nl*nh:(k+1)*nl*nh], cd[:nl*nh])
				}
			}
		}
		endStage(end)

		// Step 5 (Eq. 2) + Step 6 (Eq. 3): weighted aggregation over L
		// capsules and squash, sharded contiguously on the chosen
		// dimension (workers write disjoint s/v regions and every
		// accumulation order is unchanged, so results are identical to
		// the serial loop — see kernels.go).
		end = beginStage(timer, StageRoutingAggregate, it)
		clear(sd)
		parallelChunks(shardN, workers, func(_, lo, hi int) {
			klo, khi, jlo, jhi := partitionRect(dim, nb, nh, lo, hi)
			aggregateRange(mathOps, pd, cd, sd, vd, nl, nh, ch, klo, khi, jlo, jhi)
		})
		endStage(end)

		if it == iterations-1 {
			endStage(iterEnd)
			break
		}

		// Step 7 (Eq. 4): agreement accumulation. Per-sample mode
		// shards either dimension freely (disjoint logit entries); the
		// paper's batch-shared Σ_k accumulates into one matrix, which
		// B-sharding would reorder, so it runs serial under PartitionB
		// and shards the disjoint (i, j) entries under PartitionH with
		// k ascending per entry — bit-identical either way.
		end = beginStage(timer, StageRoutingAgreement, it)
		if mode == RouteBatchShared && dim == PartitionB {
			agreementRange(pd, vd, bd, 0, nl, nh, ch, 0, nb, 0, nh)
		} else {
			parallelChunks(shardN, workers, func(_, lo, hi int) {
				klo, khi, jlo, jhi := partitionRect(dim, nb, nh, lo, hi)
				agreementRange(pd, vd, bd, bstride, nl, nh, ch, klo, khi, jlo, jhi)
			})
		}
		endStage(end)
		endStage(iterEnd)
	}
	if mode == RouteBatchShared {
		for k := 1; k < nb; k++ {
			copy(bd[k*nl*nh:(k+1)*nl*nh], bd[:nl*nh])
		}
	}
	return RoutingResult{V: v, C: c, B: b}
}

// PredictionVectors computes Eq. 1 for a batch: û_j|i^k = u_i^k × W_ij,
// where u has shape B×L×CL and w has shape L×H×CL×CH. The result has
// shape B×L×H×CH.
func PredictionVectors(u, w *tensor.Tensor) *tensor.Tensor {
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
	parallelChunks(nl, maxWorkers(nl), func(_, lo, hi int) {
		predictionVectorsRange(ud, wd, od, nb, nl, cl, nh, ch, lo, hi)
	})
	return out
}
