// Package pimcapsnet_bench hosts the benchmark harness that
// regenerates every table and figure of the paper's evaluation
// (DESIGN.md §4 maps each benchmark to its experiment id). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the full experiment once per iteration and
// reports the paper's headline aggregate as a custom metric so the
// shape comparison is visible straight from the bench output.
package pimcapsnet_bench

import (
	"math/rand"
	"testing"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/core"
	"pimcapsnet/internal/distribute"
	"pimcapsnet/internal/experiments"
	"pimcapsnet/internal/gpusim"
	"pimcapsnet/internal/hmc"
	"pimcapsnet/internal/pimexec"
	"pimcapsnet/internal/tensor"
	"pimcapsnet/internal/workload"
)

// runExperiment is the common driver: run the experiment b.N times
// and keep the table alive so the work is not optimized away.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		rows += len(t.Rows)
	}
	if rows == 0 {
		b.Fatal("experiment produced no rows")
	}
}

func BenchmarkFig04LayerBreakdown(b *testing.B)     { runExperiment(b, "fig4") }
func BenchmarkFig05StallBreakdown(b *testing.B)     { runExperiment(b, "fig5") }
func BenchmarkFig06aIntermediateRatio(b *testing.B) { runExperiment(b, "fig6a") }
func BenchmarkFig06bOnChipScaling(b *testing.B)     { runExperiment(b, "fig6b") }
func BenchmarkFig07BandwidthScaling(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig15aRPSpeedup(b *testing.B)         { runExperiment(b, "fig15a") }
func BenchmarkFig15bRPEnergy(b *testing.B)          { runExperiment(b, "fig15b") }
func BenchmarkFig16aPIMBreakdown(b *testing.B)      { runExperiment(b, "fig16a") }
func BenchmarkFig16bPIMEnergy(b *testing.B)         { runExperiment(b, "fig16b") }
func BenchmarkFig17aOverallSpeedup(b *testing.B)    { runExperiment(b, "fig17a") }
func BenchmarkFig17bOverallEnergy(b *testing.B)     { runExperiment(b, "fig17b") }
func BenchmarkFig18DimensionFrequency(b *testing.B) { runExperiment(b, "fig18") }
func BenchmarkOverheadAnalysis(b *testing.B)        { runExperiment(b, "overhead") }

// Extensions beyond the paper's figures (see DESIGN.md §4).
func BenchmarkScalingSweep(b *testing.B)    { runExperiment(b, "scaling") }
func BenchmarkEMRoutingDesign(b *testing.B) { runExperiment(b, "emrouting") }

// BenchmarkTable5Accuracy trains two synthetic accuracy proxies (the
// 12-benchmark Table 5 takes ~20 minutes; run it via
// `pimcaps-bench -exp table5`).
func BenchmarkTable5Accuracy(b *testing.B) {
	runExperiment(b, "table5quick")
}

// --- headline aggregates as reportable metrics ---

// BenchmarkHeadlineSpeedups runs the engine once per iteration and
// reports the paper's headline numbers as benchmark metrics.
func BenchmarkHeadlineSpeedups(b *testing.B) {
	e := core.NewEngine()
	var rpSpeedup, overall, saving float64
	for i := 0; i < b.N; i++ {
		rpSpeedup, overall, saving = 0, 0, 0
		for _, bench := range workload.Benchmarks {
			gpuT, _ := e.RPGPU(bench, false)
			rpSpeedup += gpuT / e.RPPIM(bench, core.PIMCapsNet).Time
			base := e.Inference(bench, core.Baseline)
			pim := e.Inference(bench, core.PIMCapsNet)
			overall += core.Speedup(base, pim)
			saving += core.EnergySaving(base, pim)
		}
	}
	n := float64(len(workload.Benchmarks))
	b.ReportMetric(rpSpeedup/n, "rp-speedup(paper:2.17)")
	b.ReportMetric(overall/n, "overall-speedup(paper:2.44)")
	b.ReportMetric(100*saving/n, "%energy-saving(paper:64.91)")
}

// --- micro-benchmarks of the functional substrate ---

// BenchmarkDynamicRoutingMNIST routes one real CapsNet-MNIST-sized
// batch slice (8 inputs of the 1152×10 capsule topology) through the
// actual dynamic routing kernel.
func BenchmarkDynamicRoutingMNIST(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	preds := tensor.New(8, 1152, 10, 16)
	for i := range preds.Data() {
		preds.Data()[i] = float32(rng.NormFloat64()) * 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capsnet.DynamicRouting(preds, 3, capsnet.ExactMath{})
	}
}

// BenchmarkDynamicRoutingPEMath measures the PE-approximated numerics
// on the same workload.
func BenchmarkDynamicRoutingPEMath(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	preds := tensor.New(8, 1152, 10, 16)
	for i := range preds.Data() {
		preds.Data()[i] = float32(rng.NormFloat64()) * 0.1
	}
	m := capsnet.NewPEMath()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capsnet.DynamicRouting(preds, 3, m)
	}
}

// BenchmarkPredictionVectors measures Eq. 1 at MNIST scale for a
// one-image batch.
func BenchmarkPredictionVectors(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	u := tensor.New(1, 1152, 8)
	for i := range u.Data() {
		u.Data()[i] = float32(rng.NormFloat64())
	}
	w := tensor.New(1152, 10, 8, 16)
	for i := range w.Data() {
		w.Data()[i] = float32(rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capsnet.PredictionVectors(u, w)
	}
}

// BenchmarkNetworkForward measures a full tiny-network forward pass.
func BenchmarkNetworkForward(b *testing.B) {
	net, err := capsnet.New(capsnet.TinyConfig(10))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(net.Close)
	batch := tensor.New(16, 1, 12, 12)
	rng := rand.New(rand.NewSource(3))
	for i := range batch.Data() {
		batch.Data()[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(batch, capsnet.ExactMath{})
	}
}

// BenchmarkForwardArenaSteady measures the steady-state serving
// regime: each pass releases its Output back to the network's scratch
// pool, so after warmup the forward path reuses one arena and performs
// zero heap allocations (-benchmem should report 0 allocs/op; the CI
// bench gate pins that). BenchmarkNetworkForward, which never
// releases, is the fresh-buffers-per-call comparison.
func BenchmarkForwardArenaSteady(b *testing.B) {
	net, err := capsnet.New(capsnet.TinyConfig(10))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(net.Close)
	batch := tensor.New(16, 1, 12, 12)
	rng := rand.New(rand.NewSource(3))
	for i := range batch.Data() {
		batch.Data()[i] = rng.Float32()
	}
	net.Forward(batch, capsnet.ExactMath{}).Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(batch, capsnet.ExactMath{}).Release()
	}
}

// BenchmarkGPUModel measures the analytical GPU model's evaluation
// cost over the full suite.
func BenchmarkGPUModel(b *testing.B) {
	d := gpusim.TeslaP100()
	for i := 0; i < b.N; i++ {
		for _, bench := range workload.Benchmarks {
			d.Run(bench)
		}
	}
}

// BenchmarkPIMExecutor measures the functional/timing co-simulator on
// a scaled routing problem.
func BenchmarkPIMExecutor(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	preds := tensor.New(4, 96, 10, 16)
	for i := range preds.Data() {
		preds.Data()[i] = float32(rng.NormFloat64()) * 0.1
	}
	x := pimexec.New(distribute.DimH)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Run(preds, 3)
	}
}

// BenchmarkVaultSimWindow and BenchmarkVaultSimDES compare the two
// vault simulators' own costs.
func BenchmarkVaultSimWindow(b *testing.B) {
	cfg := hmc.DefaultConfig()
	m := hmc.CustomMapping{Cfg: cfg}
	p := hmc.StridedItemPattern(cfg, m, 0, cfg.PEsPerVault, 64, 64, m.VaultBase(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hmc.SimulateVault(cfg, p)
	}
}

func BenchmarkVaultSimDES(b *testing.B) {
	cfg := hmc.DefaultConfig()
	m := hmc.CustomMapping{Cfg: cfg}
	p := hmc.StridedItemPattern(cfg, m, 0, cfg.PEsPerVault, 64, 64, m.VaultBase(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hmc.SimulateVaultDES(cfg, p)
	}
}

// BenchmarkFullTrainerStep measures one end-to-end training step
// (forward + backward + update) on the tiny architecture.
func BenchmarkFullTrainerStep(b *testing.B) {
	net, err := capsnet.New(capsnet.TinyConfig(5))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(net.Close)
	tr := capsnet.NewFullTrainer(net, 0.1)
	rng := rand.New(rand.NewSource(5))
	batch := tensor.New(20, 1, 12, 12)
	for i := range batch.Data() {
		batch.Data()[i] = rng.Float32()
	}
	labels := make([]int, 20)
	for i := range labels {
		labels[i] = i % 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainBatch(batch, labels)
	}
}
