package pimcapsnet_bench

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pimcapsnet/internal/loadgen"
)

// TestSLOGateE2E is the capacity-harness smoke test the CI smoke=slo
// leg runs: it builds the real capsnet-serve and capsnet-load
// binaries, lets the harness spawn its own replica and replay a seeded
// open-loop schedule into a report, then re-runs the identical replay
// gated against that report as its parent, the way `make slo-gate`
// runs a change after its parent. An unchanged server must pass its
// own SLOs.
func TestSLOGateE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots server + load binaries; skipped in -short")
	}

	bins := buildCmds(t, "capsnet-serve", "capsnet-load")
	serveBin, loadBin := bins[0], bins[1]
	dir := t.TempDir()
	parentPath := filepath.Join(dir, "SLO_base.json")
	changePath := filepath.Join(dir, "SLO_pr.json")
	common := []string{
		"-shape", "constant", "-rate", "30", "-duration", "2s",
		"-sweep", "15,30", "-sweep-duration", "1s", "-seed", "7",
		"-spawn", serveBin,
	}

	// The first run stands in for the parent.
	args := append(append([]string{}, common...), "-out", parentPath, "--", "-demo-classes", "3")
	if out, err := exec.Command(loadBin, args...).CombinedOutput(); err != nil {
		t.Fatalf("parent run failed: %v\n%s", err, out)
	}

	// The second replays the same seed gated against the first: an
	// unchanged server failing its own SLOs means the gate is noise,
	// not a guard.
	args = append(append([]string{}, common...), "-parent", parentPath, "-out", changePath, "--", "-demo-classes", "3")
	out, err := exec.Command(loadBin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("gate rejected an unchanged server: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "SLO gate passed") {
		t.Fatalf("gated run printed no verdict:\n%s", out)
	}

	// Both reports must describe a real open-loop run.
	var reps [2]*loadgen.Report
	for i, path := range []string{parentPath, changePath} {
		rep, err := loadgen.LoadReport(path)
		if err != nil {
			t.Fatalf("loading report: %v", err)
		}
		if rep.Offered == 0 || rep.Availability < 0.5 {
			t.Fatalf("%s: implausible run: offered %d, availability %g", path, rep.Offered, rep.Availability)
		}
		if rep.P99 <= 0 || rep.P999 < rep.P99 {
			t.Fatalf("%s: broken quantiles: p99 %g, p999 %g", path, rep.P99, rep.P999)
		}
		if len(rep.Sweep) != 2 {
			t.Fatalf("%s: sweep recorded %d points, want 2", path, len(rep.Sweep))
		}
		if len(rep.Stages) == 0 {
			t.Fatalf("%s: no stage decomposition: /metrics correlation is broken", path)
		}
		reps[i] = rep
	}
	// The gate's quantile budgets, under a 150 ms floor instead of the
	// gate's 250 ms: a 2 s run at 30 req/s puts ~60 requests behind the
	// p99, so one scheduler hiccup moves it by multiples, but an
	// unchanged server should still stay this close to itself.
	const floor = 0.15
	parent, change := reps[0], reps[1]
	if budget := max(2*parent.P99, floor); change.P99 > budget {
		t.Errorf("p99 %.4gs -> %.4gs, over %.4gs", parent.P99, change.P99, budget)
	}
	if budget := max(2.5*parent.P999, floor); change.P999 > budget {
		t.Errorf("p999 %.4gs -> %.4gs, over %.4gs", parent.P999, change.P999, budget)
	}
}

// TestLoadFlagValidationE2E holds capsnet-load to its usage contract:
// a run whose flags schedule no arrivals, or whose -parent report is
// missing, unparsable or empty, exits 2 with a message naming the
// flag, before it spawns a replica or fetches the model — so no server
// is running here, and none is needed.
func TestLoadFlagValidationE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the load binary; skipped in -short")
	}
	loadBin := buildCmds(t, "capsnet-load")[0]
	dir := t.TempDir()
	garbled, empty := filepath.Join(dir, "garbled.json"), filepath.Join(dir, "empty.json")
	if err := os.WriteFile(garbled, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-duration", []string{"-duration", "0"}},
		{"-sweep-duration", []string{"-sweep-duration", "0", "-sweep", "10"}},
		{"-rate", []string{"-rate", "0.2", "-duration", "1s"}},
		{"-sweep", []string{"-sweep", "0.2"}},
		{"-parent", []string{"-parent", filepath.Join(dir, "missing.json")}},
		{"-parent", []string{"-parent", garbled}},
		{"-parent", []string{"-parent", empty}},
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
