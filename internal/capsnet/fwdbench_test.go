package capsnet

import (
	"math/rand"
	"testing"
)

// rp3872Config is the routing-dominated model the serving benchmarks
// use (the repository benchmark's rp3872, L = 32·11·11 = 3872): a light
// conv front end feeding a large routed capsule layer, matching the
// paper's §1 profile where the routing procedure dominates inference
// time.
var rp3872Config = Config{
	InputChannels: 1, InputH: 28, InputW: 28,
	ConvChannels: 8, ConvKernel: 5, ConvStride: 1,
	PrimaryChannels: 32, PrimaryDim: 8, PrimaryKernel: 3, PrimaryStride: 2,
	Classes: 10, DigitDim: 16, RoutingIterations: 3,
	Seed: 1,
}

// serveBenchNet builds rp3872Config and eight seeded images for it.
func serveBenchNet(b *testing.B) (*Network, [][]float32) {
	b.Helper()
	net, err := New(rp3872Config)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(net.Close)
	rng := rand.New(rand.NewSource(3))
	imgs := make([][]float32, 8)
	for i := range imgs {
		imgs[i] = make([]float32, net.ImageLen())
		for j := range imgs[i] {
			imgs[i][j] = float32(rng.Float64())
		}
	}
	return net, imgs
}

// BenchmarkForwardSequential8 runs eight requests one forward at a
// time — the compute profile of a serving path without micro-batching.
func BenchmarkForwardSequential8(b *testing.B) {
	net, imgs := serveBenchNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, img := range imgs {
			net.ForwardBatch([][]float32{img}, ExactMath{}).Release()
		}
	}
}

// BenchmarkForwardMicroBatch8 runs the same eight requests as one
// micro-batch: PredictionVectors streams the routing weight tensor
// once per batch instead of once per request, and on multi-core hosts
// the chunk workers split the batch between them.
func BenchmarkForwardMicroBatch8(b *testing.B) {
	net, imgs := serveBenchNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(imgs, ExactMath{}).Release()
	}
}
