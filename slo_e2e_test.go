package pimcapsnet_bench

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pimcapsnet/internal/loadgen"
	"pimcapsnet/internal/slogate"
)

// TestSLOGateE2E is the capacity-harness smoke test the CI smoke=slo
// leg runs: it builds the real capsnet-serve and capsnet-load
// binaries, lets the harness spawn its own replica and replay a seeded
// open-loop schedule, writes a fresh baseline plus a report, then
// re-runs the identical replay gated against that baseline — an
// unchanged server must pass its own SLOs. The committed
// SLO_BASELINE.json is exercised separately by the blocking slo-gate
// job via `make slo-gate`; this test proves the harness end to end
// without inheriting a shared runner's noise floor.
func TestSLOGateE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots server + load binaries; skipped in -short")
	}

	bins := buildCmds(t, "capsnet-serve", "capsnet-load")
	serveBin, loadBin := bins[0], bins[1]
	dir := t.TempDir()
	baseline := filepath.Join(dir, "SLO_BASELINE.json")
	report := filepath.Join(dir, "slo_report.json")
	common := []string{
		"-shape", "constant", "-rate", "30", "-duration", "2s",
		"-sweep", "15,30", "-sweep-duration", "1s", "-seed", "7",
		"-spawn", serveBin, "-baseline", baseline,
	}

	// First run blesses the baseline.
	args := append(append([]string{}, common...), "-update-baseline", "-out", report, "--", "-demo-classes", "3")
	if out, err := exec.Command(loadBin, args...).CombinedOutput(); err != nil {
		t.Fatalf("baseline run failed: %v\n%s", err, out)
	}

	// The report must describe a real open-loop run.
	rep, err := loadgen.LoadReport(report)
	if err != nil {
		t.Fatalf("loading report: %v", err)
	}
	if rep.Offered == 0 || rep.Availability < 0.5 {
		t.Fatalf("implausible run: offered %d, availability %g", rep.Offered, rep.Availability)
	}
	if rep.P99 <= 0 || rep.P999 < rep.P99 {
		t.Fatalf("broken quantiles: p99 %g, p999 %g", rep.P99, rep.P999)
	}
	if len(rep.Sweep) != 2 {
		t.Fatalf("sweep recorded %d points, want 2", len(rep.Sweep))
	}
	if len(rep.Stages) == 0 {
		t.Fatal("no stage decomposition: /metrics correlation is broken")
	}
	b, err := slogate.Load(baseline)
	if err != nil {
		t.Fatalf("loading written baseline: %v", err)
	}
	if b.Tolerances.MaxP99Factor <= 0 {
		t.Fatal("baseline written without explicit tolerances")
	}
	// A 2s run at 30 req/s puts ~60 requests behind the p99, so a
	// single scheduler hiccup moves it by multiples. Raise the absolute
	// floor for this smoke test: it verifies the gate machinery, not
	// this runner's noise floor (the committed SLO_BASELINE.json keeps
	// the production tolerances).
	b.Tolerances.LatencyFloor = 0.15
	if err := slogate.Save(baseline, b); err != nil {
		t.Fatal(err)
	}

	// Second run replays the same seed against the fresh baseline: an
	// unchanged server failing its own SLOs means the gate is noise,
	// not a guard.
	args = append(append([]string{}, common...), "-check-baseline", "--", "-demo-classes", "3")
	if out, err := exec.Command(loadBin, args...).CombinedOutput(); err != nil {
		t.Fatalf("gate rejected an unchanged server: %v\n%s", err, out)
	}
}

// TestLoadFlagValidationE2E holds capsnet-load to its usage contract:
// a run whose flags schedule no arrivals exits 2 with a message naming
// the flag, before it spawns a replica or fetches the model — so no
// server is running here, and none is needed.
func TestLoadFlagValidationE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the load binary; skipped in -short")
	}
	loadBin := buildCmds(t, "capsnet-load")[0]
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-duration", []string{"-duration", "0"}},
		{"-sweep-duration", []string{"-sweep-duration", "0", "-sweep", "10"}},
		{"-rate", []string{"-rate", "0.2", "-duration", "1s"}},
		{"-sweep", []string{"-sweep", "0.2"}},
	} {
		args := append([]string{"-addr", "http://127.0.0.1:1"}, tc.args...)
		out, err := exec.Command(loadBin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("capsnet-load %v: %v, want exit 2\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.flag+" ") || strings.Contains(string(out), "panic:") {
			t.Errorf("capsnet-load %v: output does not name %s (or panicked):\n%s", tc.args, tc.flag, out)
		}
	}
}
