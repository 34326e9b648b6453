// Autonomous-driving scenario (paper §1): street-number / traffic-sign
// style classification, where the paper's SVHN benchmarks vary the
// number of routing iterations (Caps-SV1/2/3: 3, 6, 9). This example
// sweeps routing iterations on a synthetic digit dataset and reports
// both the functional effect (accuracy) and the architectural effect
// (RP latency on GPU vs in-memory) — the latency budget is what an
// in-vehicle system actually cares about.
package main

import (
	"fmt"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/core"
	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/tensor"
	"pimcapsnet/internal/workload"
)

func main() {
	const digits = 10
	spec := dataset.Tiny(digits)
	spec.Name = "synthetic-street-digits"
	spec.Noise = 0.05
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(digits * 30)
	test := gen.Generate(digits * 10)
	imgLen := spec.Channels * spec.H * spec.W

	fmt.Println("routing-iteration sweep (functional):")
	for _, iters := range []int{1, 3, 6, 9} {
		cfg := capsnet.TinyConfig(digits)
		cfg.RoutingIterations = iters
		net, err := capsnet.New(cfg)
		if err != nil {
			panic(err)
		}
		tr := capsnet.NewTrainer(net, 1.0)
		n := train.Images.Dim(0)
		const batch = 30
		for ep := 0; ep < 20; ep++ {
			for s := 0; s+batch <= n; s += batch {
				img := tensor.FromSlice(train.Images.Data()[s*imgLen:(s+batch)*imgLen],
					batch, spec.Channels, spec.H, spec.W)
				tr.TrainBatch(img, train.Labels[s:s+batch])
			}
		}
		acc := capsnet.Evaluate(net, test.Images, test.Labels, capsnet.ExactMath{})
		fmt.Printf("  %d iterations: accuracy %.1f%%\n", iters, 100*acc)
		net.Close()
	}

	fmt.Println("\nrouting-iteration sweep (architectural, Caps-SV1/2/3):")
	engine := core.NewEngine()
	for _, name := range []string{"Caps-SV1", "Caps-SV2", "Caps-SV3"} {
		b, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		gpuT, _ := engine.RPGPU(b, false)
		pim := engine.RPPIM(b, core.PIMCapsNet)
		fmt.Printf("  %s (%d iters): RP on GPU %6.2f ms, in-memory %6.2f ms (%.2fx, dimension %v)\n",
			b.Name, b.Iters, gpuT*1e3, pim.Time*1e3, gpuT/pim.Time, pim.Dim)
	}
	fmt.Println("\nmore iterations deepen the GPU's bottleneck; the in-memory design")
	fmt.Println("keeps the added aggregation traffic inside the vaults.")
}
