package capsnet

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestLengthsBitIdenticalToPinnedParent pins output bits of seeded
// images, hashed, as an earlier commit computed them. The repository
// benchmark's reference and every batch/partition/arena identity test
// compare the engine with itself, so none of them can see a kernel
// that changes a summation order everywhere at once; this one can.
//
// Each model is pinned twice: the class lengths of a single image
// (constants from 7dd7505, the last commit with the one-accumulator
// convolution loop; rp3872's from d3e0f3a, which computes the same
// bits), and the lengths followed by the routing
// coefficients C of a 3-image batch under exact and PE math (constants
// from d3e0f3a, the last commit with the one-row-at-a-time û kernel
// and the serial softmax). Three images put a full pair of samples and
// an odd one through predictionVectorsRange's tiles; C covers the
// softmax, which Lengths alone sees only through the squash.
func TestLengthsBitIdenticalToPinnedParent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned on amd64: other ports may fuse x*y+z into one rounding")
	}
	cv288 := Config{
		InputChannels: 1, InputH: 28, InputW: 28,
		ConvChannels: 64, ConvKernel: 9, ConvStride: 1,
		PrimaryChannels: 8, PrimaryDim: 8, PrimaryKernel: 9, PrimaryStride: 2,
		Classes: 10, DigitDim: 16, RoutingIterations: 3,
		Seed: 1,
	}
	for _, tc := range []struct {
		name                        string
		cfg                         Config
		single, batchExact, batchPE uint64
	}{
		{"tiny", TinyConfig(3), 0x5ba5599d7c6ae637, 0x1ad5abd1a0c494c8, 0x9913101abf389f6e},
		{"cv288", cv288, 0x22ff8329fe542e42, 0x459fd4d0deef741a, 0x1420f140336dba9e},
		{"rp3872", rp3872Config, 0xacc27adc3d68d03e, 0x45de2f879113af01, 0xd35657aa0f1459e2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(net.Close)
			rng := rand.New(rand.NewSource(42))
			imgs := make([][]float32, 3)
			for k := range imgs {
				imgs[k] = make([]float32, net.ImageLen())
				for i := range imgs[k] {
					imgs[k][i] = rng.Float32()
				}
			}
			check := func(what string, imgs [][]float32, mathOps RoutingMath, withC bool, want uint64) {
				out := net.ForwardBatch(imgs, mathOps)
				defer out.Release()
				h := fnv.New64a()
				var b [4]byte
				hash := func(xs []float32) {
					for _, v := range xs {
						binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
						h.Write(b[:])
					}
				}
				hash(out.Lengths.Data())
				if withC {
					hash(out.Routing.C.Data())
				}
				if got := h.Sum64(); got != want {
					t.Errorf("%s checksum %#x, want %#x", what, got, want)
				}
			}
			check("batch-1 Lengths", imgs[:1], ExactMath{}, false, tc.single)
			check("batch-3 exact Lengths+C", imgs, ExactMath{}, true, tc.batchExact)
			check("batch-3 PE Lengths+C", imgs, NewPEMath(), true, tc.batchPE)
		})
	}
}
