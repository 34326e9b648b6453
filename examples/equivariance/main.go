// Equivariance comparison (paper §1, Fig. 1): train a capsule network
// and a same-scale pooling-CNN baseline on upright synthetic images,
// then sweep test-time rotation. Pooling's "happenstance translational
// invariance" discards pose; capsules carry it in their activity
// vectors — the motivation for running CapsNets (and thus for
// accelerating their routing procedure) in the first place.
package main

import (
	"fmt"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/tensor"
)

func main() {
	const classes = 4
	spec := dataset.Tiny(classes)
	spec.Noise = 0.12
	gen := dataset.NewGenerator(spec)
	train := gen.Generate(classes * 40)
	test := gen.Generate(classes * 25)

	caps, err := capsnet.New(capsnet.TinyConfig(classes))
	if err != nil {
		panic(err)
	}
	defer caps.Close()
	capsTr := capsnet.NewFullTrainer(caps, 0.5)
	cnn, err := capsnet.NewCNN(capsnet.TinyCNNConfig(classes))
	if err != nil {
		panic(err)
	}
	cnnTr := &capsnet.CNNTrainer{Net: cnn, LR: 0.1}

	fmt.Println("training both models on upright images...")
	imgLen := spec.Channels * spec.H * spec.W
	n := train.Images.Dim(0)
	const batch = 20
	for ep := 0; ep < 25; ep++ {
		for s := 0; s+batch <= n; s += batch {
			img := tensor.FromSlice(train.Images.Data()[s*imgLen:(s+batch)*imgLen],
				batch, spec.Channels, spec.H, spec.W)
			capsTr.TrainBatch(img, train.Labels[s:s+batch])
			cnnTr.TrainBatch(img, train.Labels[s:s+batch])
		}
	}

	fmt.Println("\ntest-time rotation sweep:")
	fmt.Printf("%8s  %10s  %10s\n", "rotation", "CapsNet", "pool-CNN")
	for _, deg := range []float64{0, 10, 20, 30, 45, 60} {
		rotated := test.Rotated(deg)
		capsAcc := capsnet.Evaluate(caps, rotated.Images, rotated.Labels, capsnet.ExactMath{})
		cnnAcc := capsnet.EvaluateCNN(cnn, rotated.Images, rotated.Labels)
		fmt.Printf("%7.0f°  %9.1f%%  %9.1f%%\n", deg, 100*capsAcc, 100*cnnAcc)
	}
	fmt.Println("\n(capsule activity vectors carry pose; pooling discards it —")
	fmt.Println(" the gap typically widens as the pose moves away from training)")
}
