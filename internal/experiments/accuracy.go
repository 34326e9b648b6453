package experiments

import (
	"fmt"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/tensor"
	"pimcapsnet/internal/workload"
)

func init() {
	register("table5", Table5)
	register("table5quick", Table5Quick)
}

// accuracyRun holds one benchmark's Table 5 row.
type accuracyRun struct {
	Bench     string
	Origin    float64 // exact FP32 routing
	NoRecover float64 // PE approximations, no accuracy recovery
	Recover   float64 // PE approximations with recovery
}

// trainProxy trains a scaled-down CapsNet with the benchmark's class
// count and routing iterations on a synthetic dataset (see DESIGN.md
// §2: real datasets and GPU training are substituted; the experiment
// measures the accuracy delta between exact and PE-approximated
// routing on a trained model, which is what Table 5 demonstrates).
func trainProxy(b workload.Benchmark) accuracyRun {
	cfg := capsnet.TinyConfig(b.NumH)
	perClass, epochs := 24, 40
	switch {
	case b.NumH > 32:
		// The largest proxies (EMNIST Balanced/ByClass scale) need
		// the most feature capacity and training budget.
		cfg.InputH, cfg.InputW = 16, 16
		cfg.ConvChannels = 32
		cfg.PrimaryChannels = 12 // 192 L capsules
		perClass, epochs = 32, 60
	case b.NumH > 16:
		// Mid-size proxies: 16×16 input, 24 conv channels, 8 primary
		// channels (128 L capsules).
		cfg.InputH, cfg.InputW = 16, 16
		cfg.ConvChannels = 24
		cfg.PrimaryChannels = 8
	}
	cfg.RoutingIterations = b.Iters
	cfg.Seed = int64(b.NumH * 7)

	spec := dataset.Tiny(b.NumH)
	spec.H, spec.W = cfg.InputH, cfg.InputW
	spec.Noise = 0.05
	spec.Seed = int64(1000 + b.NumH + b.Iters)
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(b.NumH * perClass)
	test := gen.Generate(b.NumH * 20)

	net, err := capsnet.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s proxy config invalid: %v", b.Name, err))
	}
	defer net.Close()
	tr := capsnet.NewTrainer(net, 1.0)
	if b.NumH > 10 {
		// Rebalance the margin loss for many classes (see
		// capsnet.Trainer.NegScale).
		tr.NegScale = 10.0 / float32(b.NumH)
	}
	imgLen := spec.Channels * spec.H * spec.W
	n := train.Images.Dim(0)
	batch := 40
	if batch > n {
		batch = n
	}
	for ep := 0; ep < epochs; ep++ {
		for s := 0; s+batch <= n; s += batch {
			images := tensor.FromSlice(train.Images.Data()[s*imgLen:(s+batch)*imgLen],
				batch, spec.Channels, spec.H, spec.W)
			tr.TrainBatch(images, train.Labels[s:s+batch])
		}
	}

	return accuracyRun{
		Bench:     b.Name,
		Origin:    capsnet.Evaluate(net, test.Images, test.Labels, capsnet.ExactMath{}),
		NoRecover: capsnet.Evaluate(net, test.Images, test.Labels, capsnet.NewPEMathNoRecovery()),
		Recover:   capsnet.Evaluate(net, test.Images, test.Labels, capsnet.NewPEMath()),
	}
}

// table5For runs the accuracy comparison for a subset of benchmarks
// (exported through Table5 for the full set; tests use small subsets).
func table5For(benchmarks []workload.Benchmark) Table {
	t := Table{
		ID:      "Table5",
		Title:   "Accuracy validation: exact vs PE-approximated routing (trained synthetic proxies)",
		Headers: []string{"Benchmark", "Origin", "w/o Recovery", "w/ Recovery", "Δ w/o", "Δ w/"},
	}
	var dNo, dRec float64
	for _, b := range benchmarks {
		r := trainProxy(b)
		t.Rows = append(t.Rows, []string{
			r.Bench, pct(r.Origin), pct(r.NoRecover), pct(r.Recover),
			fmt.Sprintf("%+.2f%%", 100*(r.NoRecover-r.Origin)),
			fmt.Sprintf("%+.2f%%", 100*(r.Recover-r.Origin)),
		})
		dNo += r.Origin - r.NoRecover
		dRec += r.Origin - r.Recover
	}
	n := float64(len(benchmarks))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"average loss: w/o recovery %.2f%% (paper 0.35%%), w/ recovery %.2f%% (paper 0.04%%)",
		100*dNo/n, 100*dRec/n))
	return t
}

// Table5 reproduces the paper's accuracy validation (Table 5) on
// trained synthetic proxies of all 12 benchmarks. The many-class
// EMNIST proxies dominate the cost (~20 minutes total); Table5Quick
// covers the mechanism at CI speed.
func Table5() Table {
	return table5For(workload.Benchmarks)
}

// Table5Quick runs the Table 5 comparison on the two cheapest
// benchmarks only — the variant the Go benchmark harness exercises.
func Table5Quick() Table {
	mn1, _ := workload.ByName("Caps-MN1")
	sv1, _ := workload.ByName("Caps-SV1")
	t := table5For([]workload.Benchmark{mn1, sv1})
	t.ID = "Table5-quick"
	t.Notes = append(t.Notes, "2-benchmark subset; run `pimcaps-bench -exp table5` for all 12")
	return t
}
