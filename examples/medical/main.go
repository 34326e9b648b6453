// Medical-imaging scenario (paper §1, Fig. 1): capsule networks are
// motivated by cell-classification tasks where pooling CNNs miss edge
// and pose features. This example trains a capsule network on a
// synthetic "cell image" dataset (class = cell morphology), verifies
// it learns, and then checks that deploying the routing procedure on
// PIM-CapsNet's approximated PEs — the configuration a hospital
// appliance would run — preserves the diagnosis accuracy.
package main

import (
	"fmt"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/tensor"
)

func main() {
	const morphologies = 6 // benign/malignant sub-types
	spec := dataset.Tiny(morphologies)
	spec.Name = "synthetic-cytology"
	spec.Noise = 0.08 // staining variation
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(morphologies * 40)
	test := gen.Generate(morphologies * 15)

	cfg := capsnet.TinyConfig(morphologies)
	cfg.WithDecoder = true // reconstruction for explainability review
	net, err := capsnet.New(cfg)
	if err != nil {
		panic(err)
	}
	defer net.Close()

	fmt.Println("training capsule classifier on synthetic cytology slides...")
	tr := capsnet.NewTrainer(net, 1.0)
	imgLen := spec.Channels * spec.H * spec.W
	n := train.Images.Dim(0)
	const batch = 24
	for ep := 0; ep < 25; ep++ {
		for s := 0; s+batch <= n; s += batch {
			img := tensor.FromSlice(train.Images.Data()[s*imgLen:(s+batch)*imgLen],
				batch, spec.Channels, spec.H, spec.W)
			tr.TrainBatch(img, train.Labels[s:s+batch])
		}
	}

	exact := capsnet.Evaluate(net, test.Images, test.Labels, capsnet.ExactMath{})
	noRec := capsnet.Evaluate(net, test.Images, test.Labels, capsnet.NewPEMathNoRecovery())
	rec := capsnet.Evaluate(net, test.Images, test.Labels, capsnet.NewPEMath())
	fmt.Printf("diagnosis accuracy, exact GPU routing:          %.1f%%\n", 100*exact)
	fmt.Printf("diagnosis accuracy, PIM PEs without recovery:   %.1f%%\n", 100*noRec)
	fmt.Printf("diagnosis accuracy, PIM PEs with recovery:      %.1f%%\n", 100*rec)

	// Reconstruction of the predicted class capsule — the decoder
	// output a reviewer would inspect.
	out := net.Forward(test.Images, capsnet.ExactMath{})
	defer out.Release()
	pred := out.Predictions()[0]
	recon := net.Reconstruct(out, 0, pred)
	var mse float32
	for p, v := range recon {
		d := v - test.Images.Data()[p]
		mse += d * d
	}
	fmt.Printf("reconstruction MSE of first slide (class %d): %.4f\n", pred, mse/float32(len(recon)))
}
