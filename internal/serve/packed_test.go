package serve

import (
	"testing"

	"pimcapsnet/internal/packedtest"
)

// TestCampaignOnGoKernels re-runs the fault campaign with the packed
// micro-kernels switched off: a flipped weight, a corrupted batch and
// a NaN exponential must degrade the same way on the Go kernels, which
// a host with AVX2 would otherwise never put under the campaign.
func TestCampaignOnGoKernels(t *testing.T) {
	if packedtest.Detected() == packedtest.Off {
		t.Skip("this CPU has no packed path: the campaign already ran on the Go kernels")
	}
	packedtest.With(t, false, func() {
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
	})
}
