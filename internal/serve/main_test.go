package serve

import (
	"os"
	"runtime"
	"testing"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/tensor"
	"pimcapsnet/internal/testutil"
)

// TestMain arms the goroutine-leak net: the static goroleak analyzer
// proves every go statement here has bounded lifetime on paper, and
// this verifies the bound actually fires — a batcher whose Close fails
// to join its dispatcher/runner fails the whole binary.
func TestMain(m *testing.M) {
	os.Exit(testutil.VerifyNoLeaks(m))
}

// TestPublicRoutingJoinsItsWorkers puts capsnet's public routing entry
// point under the net above. A Network keeps its chunk workers until
// Close; a call without one opens a pool of its own and must have
// joined it by the time it returns, or the workers outlive the binary's
// tests and fail the run.
func TestPublicRoutingJoinsItsWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // real pool workers on any host
	defer runtime.GOMAXPROCS(prev)
	preds := tensor.New(2, 12, 4, 8)
	for i := range preds.Data() {
		preds.Data()[i] = float32(i%7) / 7
	}
	res := capsnet.DynamicRoutingMode(preds, 3, capsnet.ExactMath{}, capsnet.RoutePerSample)
	if res.V.Dim(0) != 2 || res.V.Dim(1) != 4 || res.V.Dim(2) != 8 {
		t.Fatalf("capsules shape %v", res.V.Shape())
	}
}
