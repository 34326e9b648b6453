package tensor

import "testing"

// BenchmarkPackedMulAddPeak is the ceiling BenchmarkConv2DInto's
// GMAC/s are a share of: convTile8x8's 8 multiplies and 8 adds a step,
// on registers, counted as 64 multiply-adds.
func BenchmarkPackedMulAddPeak(b *testing.B) {
	if !Packed() {
		b.Skip("this CPU has no packed path")
	}
	const steps = 1 << 20
	for i := 0; i < b.N; i++ {
		packedMulAddPeak(steps)
	}
	b.ReportMetric(64*steps*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}
