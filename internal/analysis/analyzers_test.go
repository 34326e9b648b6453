package analysis_test

import (
	"testing"

	"pimcapsnet/internal/analysis"
	"pimcapsnet/internal/analysis/analysistest"
)

// The per-analyzer golden tests run in parallel on purpose: the golden
// loaders share one process-wide export-data cache, so the race
// detector sweeps the loader's locking along with the analyzers.

func TestReleasecheck(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysis.Releasecheck, "releasecheck")
}

func TestLayercheck(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysis.Layercheck,
		"internal/tensor", "internal/fp32", "internal/capsnet",
		"internal/cluster", "internal/serve", "internal/loadgen",
		"layerobs/internal/obs", "cmd/alpha", "cmd/beta",
		"cmd/capsnet-load", "examples/serve")
}

func TestHotpathcheck(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysis.Hotpathcheck, "hotpathcheck")
}

func TestFloateqcheck(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysis.Floateqcheck, "floateqcheck")
}

func TestPaniccheck(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysis.Paniccheck, "paniccheck", "paniccheck/kept")
}

func TestCtxcheck(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysis.Ctxcheck,
		"ctxcheck/internal/serve", "ctxcheck/internal/cluster", "ctxcheck/internal/other")
}

func TestGuardedby(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysis.Guardedby, "guardedby")
}

func TestGoroleak(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysis.Goroleak,
		"goroleak/internal/cluster", "goroleak/internal/capsnet", "goroleak/internal/other")
}

func TestTimerleak(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysis.Timerleak,
		"timerleak", "timerleak/internal/serve", "timerleak/internal/cluster")
}
