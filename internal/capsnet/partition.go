package capsnet

import "fmt"

// Partition selects which dimension of the routing procedure's
// workload is sharded contiguously across workers — the software
// counterpart of the PIM-CapsNet paper's B/L/H workload distribution
// (§5, Table 2). The aggregation of Eq. 2 and the agreement of Eq. 4
// iterate a B×L×H×CH nest whose per-output accumulation runs over L
// (aggregation) or is pointwise (agreement), so both the batch
// dimension B and the high-level-capsule dimension H can be split
// without changing any per-element accumulation order — results stay
// bit-identical to the serial loop for every choice, which is what
// makes this a pure performance knob.
type Partition int

const (
	// PartitionAuto picks B or H per forward pass with the analytical
	// cost model of choosePartition (the default).
	PartitionAuto Partition = iota
	// PartitionB shards the batch dimension: each worker owns a
	// contiguous run of samples. Best once the batch has at least one
	// sample per worker (throughput serving, training).
	PartitionB
	// PartitionH shards the high-level-capsule dimension: each worker
	// owns a contiguous run of output capsules across all samples.
	// Best for small batches (batch-1 latency), where B-sharding would
	// leave workers idle — the paper's intra-sample parallelism.
	PartitionH
)

// String implements fmt.Stringer.
func (p Partition) String() string {
	switch p {
	case PartitionAuto:
		return "auto"
	case PartitionB:
		return "batch"
	case PartitionH:
		return "hcaps"
	}
	return fmt.Sprintf("Partition(%d)", int(p))
}

// ceilDiv returns ⌈a/b⌉ for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ChoosePartition resolves p to PartitionB or PartitionH for a routing
// workload of nb samples × nl low-level capsules × nh high-level
// capsules × ch dimensions on the given worker count, mirroring the
// paper's execution-score model (Eqs. 6–12): for each candidate
// dimension it scores the slowest worker's multiply-accumulate load
// (the ⌈N/W⌉ term of Eqs. 6–8, which is what makes uneven splits
// expensive) plus a data-movement term (Eqs. 9–11) — H-sharding walks
// the prediction-vector and coupling arrays with an nh·ch stride, so
// its traffic is charged a constant-factor penalty over B-sharding's
// fully contiguous streams — and picks the smaller score (Eq. 12's
// argmin). Ties go to B, whose access pattern is contiguous.
//
// The net effect matches Table 2's intuition: batches with at least
// roughly one sample per worker shard on B; small batches (the
// batch-1 serving case) shard on H so intra-sample parallelism keeps
// the workers busy.
//
// Exported because the same work-vs-movement scoring that places
// routing chunks on workers also places requests on serving replicas:
// the cluster tier (internal/cluster, which deliberately does not
// import this package) mirrors the decision through
// distribute.Scorer.ScoreEM, and tools comparing the two tiers can
// call this directly.
func ChoosePartition(p Partition, nb, nl, nh, ch, workers int) Partition {
	if p == PartitionB || p == PartitionH {
		return p
	}
	if workers <= 1 || nb <= 0 || nh <= 0 {
		return PartitionB
	}
	// Execution score: the critical-path worker's MAC count.
	execB := ceilDiv(nb, workers) * nl * nh * ch
	execH := nb * nl * ceilDiv(nh, workers) * ch
	// Movement score: floats the critical-path worker streams through.
	// Both read the same total volume, but the H shard's accesses are
	// strided (one j-run out of every nh·ch block), charged 4/3 of the
	// contiguous cost — enough to break ties toward B without masking
	// a real parallelism win for small batches.
	moveB := execB
	moveH := execH * 4 / 3
	if execB+moveB <= execH+moveH {
		return PartitionB
	}
	return PartitionH
}

// partitionRect maps chunk [lo, hi) of the shard dimension dim
// (resolved: PartitionB or PartitionH) to the (samples × high-level
// capsules) rectangle the aggregate and agreement kernels take.
func partitionRect(dim Partition, nb, nh, lo, hi int) (klo, khi, jlo, jhi int) {
	if dim == PartitionB {
		return lo, hi, 0, nh
	}
	return 0, nb, lo, hi
}
