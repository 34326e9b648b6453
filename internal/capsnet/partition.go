package capsnet

// Partition named the dimension (batch B or high-level capsules H) the
// routing workload was once sharded on. Every routing stage now chunks
// over flattened outputs, so nothing in this module produces a
// Partition value; the type and PartitionB remain only because the
// benchmark module (bench/spans.go, bench/bench_test.go) compiles
// against them together with StageRoutingPartition.
type Partition int

// PartitionB was the batch-dimension shard. Nothing produces it.
const PartitionB Partition = 1
