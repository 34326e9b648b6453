package capsnet_test

import (
	"fmt"
	"math/rand"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/tensor"
)

// ExampleDynamicRouting routes a tiny set of prediction vectors and
// prints the resulting capsule count.
func ExampleDynamicRouting() {
	rng := rand.New(rand.NewSource(1))
	preds := tensor.New(1, 4, 2, 3) // 1 input, 4 L capsules, 2 H capsules, 3-D
	for i := range preds.Data() {
		preds.Data()[i] = float32(rng.NormFloat64()) * 0.1
	}
	res := capsnet.DynamicRouting(preds, 3, capsnet.ExactMath{})
	fmt.Println("capsules:", res.V.Dim(1), "dims:", res.V.Dim(2))
	// Output:
	// capsules: 2 dims: 3
}

// ExampleNetwork_Forward builds a small CapsNet and classifies a batch.
func ExampleNetwork_Forward() {
	net, err := capsnet.New(capsnet.TinyConfig(3))
	if err != nil {
		panic(err)
	}
	defer net.Close()
	batch := tensor.New(2, 1, 12, 12) // two blank 12×12 images
	out := net.Forward(batch, capsnet.ExactMath{})
	fmt.Println("predictions per image:", len(out.Predictions()))
	fmt.Println("class scores per image:", out.Lengths.Dim(1))
	// Output:
	// predictions per image: 2
	// class scores per image: 3
}

// ExamplePEMath shows the PE-approximated special functions the
// in-memory accelerator evaluates.
func ExamplePEMath() {
	m := capsnet.NewPEMath()
	exact := capsnet.ExactMath{}
	fmt.Printf("exp(1): approx %.2f vs exact %.2f\n", m.Exp(1), exact.Exp(1))
	fmt.Printf("1/sqrt(4): approx %.2f vs exact %.2f\n", m.InvSqrt(4), exact.InvSqrt(4))
	// Output:
	// exp(1): approx 2.77 vs exact 2.72
	// 1/sqrt(4): approx 0.48 vs exact 0.50
}

// ExampleMarginLoss evaluates the capsule margin loss for a perfect
// prediction.
func ExampleMarginLoss() {
	lengths := []float32{0.95, 0.05, 0.03} // class 0 confidently present
	fmt.Println("loss:", capsnet.MarginLoss(lengths, 0))
	// Output:
	// loss: 0
}
