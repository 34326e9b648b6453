package capsnet

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestLengthsBitIdenticalToPinnedParent pins the class-length bits of
// one seeded image, hashed, as commit 7dd7505 (the last one with the
// one-accumulator convolution loop) computed them. The repository
// benchmark's reference and every batch/partition/arena identity test
// compare the engine with itself, so none of them can see a kernel
// that changes a summation order everywhere at once; this one can.
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
		name string
		cfg  Config
		want uint64
	}{
		{"tiny", TinyConfig(3), 0x5ba5599d7c6ae637},
		{"cv288", cv288, 0x22ff8329fe542e42},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(net.Close)
			rng := rand.New(rand.NewSource(42))
			img := make([]float32, net.ImageLen())
			for i := range img {
				img[i] = rng.Float32()
			}
			out := net.ForwardBatch([][]float32{img}, ExactMath{})
			defer out.Release()
			h := fnv.New64a()
			var b [4]byte
			for _, v := range out.Lengths.Data() {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("Lengths checksum %#x, want %#x", got, tc.want)
			}
		})
	}
}
