// Quickstart: build a CapsNet, run inference on synthetic data, and
// compare a Table 1 benchmark on the baseline GPU against the
// PIM-CapsNet hybrid design.
package main

import (
	"fmt"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/core"
	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/workload"
)

func main() {
	// --- 1. A functional capsule network on synthetic images. ---
	gen := dataset.NewGenerator(dataset.Tiny(4))
	ds := gen.Generate(8)

	net, err := capsnet.New(capsnet.TinyConfig(4))
	if err != nil {
		panic(err)
	}
	defer net.Close()
	out := net.Forward(ds.Images, capsnet.ExactMath{})
	fmt.Println("capsule lengths of the first image (one per class):")
	for j, l := range out.Lengths.Data()[:4] {
		fmt.Printf("  class %d: %.3f\n", j, l)
	}
	fmt.Printf("predictions for 8 untrained inputs: %v\n\n", out.Predictions())
	// Hand the scratch arena back to the network's pool — the contract
	// every Forward caller owes (pimcaps-vet's releasecheck enforces it).
	out.Release()

	// --- 2. The same routing procedure, evaluated as an architecture. ---
	b, _ := workload.ByName("Caps-MN1")
	engine := core.NewEngine()

	base := engine.Inference(b, core.Baseline)
	pim := engine.Inference(b, core.PIMCapsNet)
	fmt.Printf("%s on %s:\n", b.Name, engine.GPU.Name)
	fmt.Printf("  baseline GPU:   %.3f s, %.1f J\n", base.Total, base.Energy.Total())
	fmt.Printf("  PIM-CapsNet:    %.3f s, %.1f J\n", pim.Total, pim.Energy.Total())
	fmt.Printf("  speedup %.2fx, energy saving %.1f%%\n",
		core.Speedup(base, pim), 100*core.EnergySaving(base, pim))
	fmt.Printf("  routing ran in-memory on dimension %v: exec %.2f ms, crossbar %.2f ms, VRS %.2f ms\n",
		pim.RP.Dim, pim.RP.Exec*1e3, pim.RP.Xbar*1e3, pim.RP.VRS*1e3)
}
