package serve

import (
	"testing"
	_ "unsafe" // go:linkname, to reach the engine's unexported switches from this test file only
)

// The engine's two packed-kernel switches (internal/capsnet,
// internal/tensor). Nothing outside _test.go files can reach them.
//
//go:linkname capsnetPacked pimcapsnet/internal/capsnet.packed
var capsnetPacked bool

//go:linkname tensorPacked pimcapsnet/internal/tensor.packed
var tensorPacked bool

// TestCampaignOnGoKernels re-runs the fault campaign with the packed
// micro-kernels switched off: a flipped weight, a corrupted batch and
// a NaN exponential must degrade the same way on the Go kernels, which
// a host with AVX2 would otherwise never put under the campaign.
func TestCampaignOnGoKernels(t *testing.T) {
	if !capsnetPacked && !tensorPacked {
		t.Skip("this CPU has no packed path: the campaign already ran on the Go kernels")
	}
	defer func(c, x bool) { capsnetPacked, tensorPacked = c, x }(capsnetPacked, tensorPacked)
	capsnetPacked, tensorPacked = false, false
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"WeightBitFlips", TestCampaignWeightBitFlips},
		{"ApproxMathNaN", TestCampaignApproxMathNaNFallsBackToExact},
		{"RoutingInputCorruption", TestCampaignRoutingInputCorruption},
		{"BatchCorruption", TestCampaignBatchCorruption},
		{"InjectedPanic", TestCampaignInjectedPanic},
		{"WatchdogStall", TestCampaignWatchdogStall},
		{"CheckpointCorruption", TestCampaignCheckpointCorruption},
		{"DisabledInjectors", TestCampaignDisabledInjectorsAreInvisible},
	} {
		t.Run(tc.name, tc.fn)
	}
}
