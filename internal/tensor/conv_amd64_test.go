package tensor

import (
	"math"
	"testing"
)

// BenchmarkPackedMulAddPeak is the ceiling BenchmarkConv2DInto's
// GMAC/s are a share of, one sub-benchmark per packed body: avx2 is
// convTile8x8's 8 multiplies and 8 adds a step on YMM registers,
// counted as 64 multiply-adds; avx512 is convTile8x32's on ZMM
// registers, counted as 128.
func BenchmarkPackedMulAddPeak(b *testing.B) {
	for _, body := range []struct {
		name   string
		usable bool
		peak   func(steps int)
		macs   float64
	}{
		{"avx2", Packed(), packedMulAddPeak, 64},
		{"avx512", packed512(), packedMulAddPeak512, 128},
	} {
		b.Run(body.name, func(b *testing.B) {
			if !body.usable {
				b.Skip("this CPU has no " + body.name + " body")
			}
			const steps = 1 << 20
			for i := 0; i < b.N; i++ {
				body.peak(steps)
			}
			b.ReportMetric(body.macs*steps*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// BenchmarkStreamRead is the ceiling of a kernel that streams its
// operand from memory once for one multiply-add per float, as Eqs. 1, 2
// and 4 in internal/capsnet do: a packed sum over a 64 MiB buffer, one
// core, in GB/s. plain leaves the stream to the hardware prefetcher,
// prefetch issues a PREFETCHT0 per line 4 KB ahead, as the routing
// kernels do. A bare read keeps the hardware prefetcher far enough
// ahead by itself, so the two read about the same; a kernel with
// arithmetic and stores between its loads does not, and the GB/s it
// reports are read against these.
func BenchmarkStreamRead(b *testing.B) {
	if !Packed() {
		b.Skip("this CPU has no packed path")
	}
	x := make([]float32, 64<<20/4)
	for i := range x {
		x[i] = 1
	}
	for _, body := range []struct {
		name string
		read func([]float32) float32
	}{
		{"plain", streamRead},
		{"prefetch", streamReadPrefetch},
	} {
		b.Run(body.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if s := body.read(x); math.Float32bits(s) != math.Float32bits(float32(len(x))) {
					b.Fatalf("sum %v, want %d", s, len(x))
				}
			}
			b.ReportMetric(float64(4*len(x))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}
