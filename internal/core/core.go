// Package core is PIM-CapsNet itself: the hybrid GPU + in-memory
// computing engine of the paper. It combines the GPU characterization
// model (internal/gpusim), the HMC vault/crossbar simulator
// (internal/hmc), the PE array model (internal/pe), the inter-vault
// workload distributor (internal/distribute), the RMAS scheduler
// (internal/sched) and the energy accounting (internal/energy), with
// the host/HMC batch pipeline (twoStage), into one evaluator that
// reproduces every design point of the paper's evaluation:
//
//	Baseline    — GPU with HBM (§6.1 design 1)
//	GPUICP      — GPU with an ideal cache replacement policy (2)
//	PIMCapsNet  — full design: inter-vault + intra-vault + custom
//	              mapping + RMAS (3)
//	PIMIntra    — no inter-vault design: data interleaves across
//	              vaults, remote traffic floods the crossbar (4)
//	PIMInter    — no intra-vault design: snippets are vault-local but
//	              bank conflicts serialize PE requests (5)
//	RMASPIM     — full design with naive PIM-first arbitration (6)
//	RMASGPU     — full design with naive GPU-first arbitration (7)
//	AllInPIM    — the whole network, Conv/FC included, in the cube (8)
package core

import (
	"fmt"

	"pimcapsnet/internal/distribute"
	"pimcapsnet/internal/energy"
	"pimcapsnet/internal/gpusim"
	"pimcapsnet/internal/hmc"
	"pimcapsnet/internal/pe"
	"pimcapsnet/internal/sched"
	"pimcapsnet/internal/workload"
)

// Design selects one of the evaluation's design points.
type Design int

// The eight design points of §6.1.
const (
	Baseline Design = iota
	GPUICP
	PIMCapsNet
	PIMIntra
	PIMInter
	RMASPIM
	RMASGPU
	AllInPIM
)

// String implements fmt.Stringer.
func (d Design) String() string {
	switch d {
	case Baseline:
		return "Baseline"
	case GPUICP:
		return "GPU-ICP"
	case PIMCapsNet:
		return "PIM-CapsNet"
	case PIMIntra:
		return "PIM-Intra"
	case PIMInter:
		return "PIM-Inter"
	case RMASPIM:
		return "RMAS-PIM"
	case RMASGPU:
		return "RMAS-GPU"
	case AllInPIM:
		return "All-in-PIM"
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// Designs lists every design point in evaluation order.
var Designs = []Design{Baseline, GPUICP, PIMCapsNet, PIMIntra, PIMInter, RMASPIM, RMASGPU, AllInPIM}

// Engine evaluates CapsNet inference under any design point.
type Engine struct {
	GPU      gpusim.Device
	HMC      hmc.Config
	PESpec   pe.Spec
	GPUPower energy.GPUParams
	HMCPower energy.HMCParams
	// ForceDim overrides the intelligent distributor's dimension
	// choice (used by the Fig. 18 sweep); nil means use the
	// execution-score decision.
	ForceDim *distribute.Dimension
	// Contention parameterizes GPU↔PE vault contention for the RMAS
	// model (Eq. 15 inputs).
	Contention sched.Contention
	// HighFidelity switches the per-vault contention window from the
	// fast cycle-window simulator to the event-driven model
	// (hmc.SimulateVaultDES). Both agree within a few percent (see
	// the cross-validation tests); the DES run exposes queueing
	// detail at ~10× the cost.
	HighFidelity bool
}

// NewEngine returns an engine with the paper's platform (Table 4).
func NewEngine() *Engine {
	return &Engine{
		GPU:      gpusim.TeslaP100(),
		HMC:      hmc.DefaultConfig(),
		PESpec:   pe.DefaultSpec(),
		GPUPower: energy.DefaultGPU(),
		HMCPower: energy.DefaultHMC(),
		Contention: sched.Contention{
			NMax: 4, Q: 16, GammaV: 1, GammaH: 1,
		},
	}
}

// crossbarCongestion is the achieved fraction of aggregate internal
// bandwidth for fine-grained remote block traffic (PIM-Intra's access
// pattern: 16-byte payloads with packet overhead under head-of-line
// blocking).
const crossbarCongestion = 0.18

// RPResult describes one batch of routing-procedure execution in the
// cube.
type RPResult struct {
	Design Design
	Dim    distribute.Dimension
	// Time is the per-batch wall time; the components decompose it:
	// Exec (compute/ideal memory streaming), VRS (bank-conflict
	// stalls), Xbar (inter-vault traffic: distribution communication
	// or remote-access overhead).
	Time, Exec, VRS, Xbar float64
	// Energy is the per-batch HMC energy.
	Energy energy.Breakdown
	// PEOps and DRAMBytes record the work done.
	PEOps, DRAMBytes float64
}

// rpOpMix returns the per-batch PE operation mix of the routing
// procedure (Eq. 1 once, Eqs. 2–5 per iteration).
func rpOpMix(b workload.Benchmark) pe.OpCounts {
	mix := pe.EquationOps(b, workload.EqPrediction)
	perIter := pe.EquationOps(b, workload.EqWeightedSum).
		Plus(pe.EquationOps(b, workload.EqSquash)).
		Plus(pe.EquationOps(b, workload.EqAgreement)).
		Plus(pe.EquationOps(b, workload.EqSoftmax))
	return mix.Plus(perIter.Scale(float64(b.Iters)))
}

// rpTraffic returns the routing procedure's algorithmic DRAM bytes per
// batch (no framework temporaries: the PEs stream û twice per
// iteration plus the small s/v/b/c state — workload.RPCost with zero
// cache).
func rpTraffic(b workload.Benchmark) float64 {
	c := b.RPCost(0)
	return c.BytesIn + c.BytesOut
}

// vaultWindow runs a representative request window through one vault
// under the design's mapping and returns (cycles per local request,
// VRS fraction of memory time).
func (e *Engine) vaultWindow(b workload.Benchmark, d Design) (cpr, vrsFrac float64) {
	cfg := e.HMC
	itemBytes := b.DimH * workload.WordBytes // one û vector
	var p hmc.AccessPattern
	switch d {
	case PIMInter:
		naive := hmc.VaultTopNaiveMapping{Cfg: cfg}
		base := hmc.CustomMapping{Cfg: cfg}.VaultBase(0)
		p = hmc.SnippetPattern(cfg, naive, 0, cfg.PEsPerVault, 256, base, cfg.SubPageBytes)
	default:
		m := hmc.CustomMapping{Cfg: cfg}
		p = hmc.StridedItemPattern(cfg, m, 0, cfg.PEsPerVault, 64, itemBytes, m.VaultBase(0))
	}
	if e.HighFidelity {
		r := hmc.SimulateVaultDES(cfg, p)
		ideal := float64(cfg.IssueCycles)
		cpr = r.CyclesPerRequest()
		if cpr > 0 {
			vrsFrac = 1 - ideal/cpr
			if vrsFrac < 0 {
				vrsFrac = 0
			}
		}
		return cpr, vrsFrac
	}
	r := hmc.SimulateVault(cfg, p)
	return r.CyclesPerRequest(), r.StallFraction()
}

// chooseDim runs the intelligent workload distributor (§5.1.2).
func (e *Engine) chooseDim(b workload.Benchmark) distribute.Dimension {
	if e.ForceDim != nil {
		return *e.ForceDim
	}
	p := distribute.FromBenchmark(b, e.HMC)
	return distribute.NewScorer(e.HMC).Best(p).Dim
}

// imbalance returns E(d) relative to a perfectly even split — the
// workload-imbalance penalty of distributing on a dimension whose
// extent does not divide the vault count.
func imbalance(p distribute.Params, d distribute.Dimension) float64 {
	extent := p.Snippets(d)
	if extent >= p.NVault {
		// ceil rounding across vaults.
		per := float64((extent + p.NVault - 1) / p.NVault)
		return per * float64(p.NVault) / float64(extent)
	}
	// Fewer snippets than vaults: §5.2.1 re-dimensions the
	// sub-operations along another parallel dimension, so the PEs
	// stay busy; only the vault-level split is limited.
	return float64(p.NVault) / float64(extent)
}

// RPPIM evaluates one batch of the routing procedure in the cube
// under the given design point.
func (e *Engine) RPPIM(b workload.Benchmark, d Design) RPResult {
	return e.rpPIMWith(b, d, rpOpMix(b), rpTraffic(b))
}

// EMRPPIM evaluates one batch of Expectation-Maximization routing in
// the cube under the given design point — the paper's optimizations
// are "generally applicable to different RP algorithms" (§4), and EM
// shares dynamic routing's all-to-all aggregation structure with a
// heavier per-iteration operation mix (Gaussian fitting) and one more
// pass over the vote tensor.
func (e *Engine) EMRPPIM(b workload.Benchmark, d Design) RPResult {
	return e.rpPIMWith(b, d, emOpMix(b), emTraffic(b))
}

// rpPIMWith is the shared in-memory evaluation for any routing
// algorithm described by its operation mix and DRAM traffic.
func (e *Engine) rpPIMWith(b workload.Benchmark, d Design, mix pe.OpCounts, traffic float64) RPResult {
	cfg := e.HMC
	dim := e.chooseDim(b)
	params := distribute.FromBenchmark(b, cfg)
	blocks := cfg.BlocksOf(traffic)
	xbar := hmc.Crossbar{Cfg: cfg}

	// Compute: the op mix spreads over all vaults' PE arrays with the
	// distribution dimension's imbalance.
	array := pe.Array{Spec: e.PESpec, PEs: cfg.PEsPerVault, ClockHz: cfg.ClockHz}
	computeTime := array.Time(mix) / float64(cfg.Vaults)
	var commTime float64

	res := RPResult{Design: d, Dim: dim, PEOps: mix.Total(), DRAMBytes: traffic}

	switch d {
	case PIMIntra:
		// No inter-vault design: data interleaves across vaults
		// (default mapping), so ~(V−1)/V of accesses are remote and
		// cross the crossbar as fine-grained packets.
		remoteFrac := float64(cfg.Vaults-1) / float64(cfg.Vaults)
		cpr, vrsFrac := e.vaultWindow(b, d)
		memTotal := blocks / float64(cfg.Vaults) * cpr / cfg.ClockHz
		vrs := memTotal * vrsFrac
		ideal := memTotal - vrs
		wire := blocks * remoteFrac * float64(cfg.BlockBytes+cfg.PacketOverheadBytes)
		commTime = wire / (crossbarCongestion * cfg.InternalBW)
		res.Exec = maxf(computeTime, ideal)
		res.VRS = vrs
		res.Xbar = commTime
	case PIMInter, PIMCapsNet, RMASPIM, RMASGPU, AllInPIM:
		cpr, vrsFrac := e.vaultWindow(b, d)
		imb := imbalance(params, dim)
		memTotal := blocks / float64(cfg.Vaults) * cpr / cfg.ClockHz * imb
		vrs := memTotal * vrsFrac
		ideal := memTotal - vrs
		// Inter-vault communication of the distribution dimension
		// (M model): gathers and scatters are port-limited.
		mBytes := params.M(dim)
		packets := mBytes / float64(cfg.SubPageBytes+cfg.PacketOverheadBytes)
		commTime = xbar.GatherTime(mBytes/2, packets/2) + xbar.ScatterTime(mBytes/2, packets/2)
		res.Exec = maxf(computeTime*imb, ideal)
		res.VRS = vrs
		res.Xbar = commTime
	default:
		panic(fmt.Sprintf("core: RPPIM called for host design %v", d))
	}
	res.Time = res.Exec + res.VRS + res.Xbar

	// Energy: PE ops, local DRAM traffic, crossbar wire bytes, plus
	// the small result vector returned to the host.
	xbarBytes := params.M(dim)
	if d == PIMIntra {
		xbarBytes = blocks * float64(cfg.Vaults-1) / float64(cfg.Vaults) * float64(cfg.BlockBytes+cfg.PacketOverheadBytes)
	}
	extBytes := float64(b.BatchSize*b.NumH*b.DimH) * workload.WordBytes
	res.Energy = energy.HMCActive(e.HMCPower, res.Time, mix.Total(), traffic, xbarBytes, extBytes)
	return res
}

// RPGPU returns the per-batch routing-procedure time and energy on the
// host GPU (Baseline or GPU-ICP numerics).
func (e *Engine) RPGPU(b workload.Benchmark, ideal bool) (float64, energy.Breakdown) {
	dev := e.GPU
	dev.IdealCache = ideal
	t := dev.RPTime(b)
	cost := b.RPCost(dev.OnChipBytes)
	eng := energy.GPUActive(e.GPUPower, t.Total(), cost.FLOPs, cost.BytesIn+cost.BytesOut)
	return t.Total(), eng
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// emOpMix returns the per-batch PE operation mix of EM routing: Eq. 1
// (vote computation) once, then per iteration an M-step that fits each
// parent's Gaussian (weighted mean and variance over the child votes,
// plus a sigmoid activation) and an E-step that re-evaluates every
// vote's responsibility (distance, exponential, normalization). The
// counts are formulas over the benchmark's shapes: no functional EM
// routing runs in this repository to produce or check them.
func emOpMix(b workload.Benchmark) pe.OpCounts {
	nb, nl, nh := float64(b.BatchSize), float64(b.NumL), float64(b.NumH)
	ch := float64(b.DimH)
	mix := pe.EquationOps(b, workload.EqPrediction)
	perIter := pe.OpCounts{
		// M-step: mean (NL·CH MACs per parent) + variance (2·NL·CH)
		// + normalization muls and the activation logit.
		MAC:   nb*nh*nl*ch + 2*nb*nh*nl*ch,
		Mul:   nb * nh * 2 * ch,
		Add:   nb * nh * (ch + 1),
		Exp:   nb * nh,
		Recip: nb*nh + nb*nl, // activation sigmoid + E-step row normalization
	}
	perIter = perIter.Plus(pe.OpCounts{
		// E-step: squared distance per vote plus its exponential.
		MAC: nb * nl * nh * ch,
		Exp: nb * nl * nh,
		Mul: nb * nl * nh,
	})
	return mix.Plus(perIter.Scale(float64(b.Iters)))
}

// emTraffic returns EM routing's algorithmic DRAM bytes per batch:
// votes are produced once and re-read three times per iteration
// (mean, variance, E-step), and the responsibility tensor (one scalar
// per vote pair and batch element) is rewritten every iteration. Like
// emOpMix it is a formula, not a count taken from a running EM routing.
func emTraffic(b workload.Benchmark) float64 {
	vars := b.RPVars()
	respBytes := float64(b.BatchSize*b.NumL*b.NumH) * workload.WordBytes
	uIn := float64(b.BatchSize*b.NumL*b.DimL) * workload.WordBytes
	perIter := 3*vars.UHat + 2*respBytes + 2*(vars.S+vars.V)
	return uIn + vars.Weights + vars.UHat + respBytes + float64(b.Iters)*perIter + vars.V
}
