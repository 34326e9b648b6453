package tensor

import "testing"

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
