// Command bench is the repository's one canonical benchmark: four
// workloads that run the stack from kernel to router over two frozen
// models, eight end-to-end metrics each, and a per-layer table measured
// from outside the program. See README.md for the tables and
// ../BENCHMARK.json for the contract the driver holds it to.
//
//	go run -C bench .                      # every workload: untraced pass, then traced pass
//	go run -C bench . -workload serve_sat  # one workload, end-to-end metrics
//	go run -C bench . -workload serve_sat -trace 1
//	go run -C bench . -aa                  # two full sets; fails if they disagree beyond the bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// contract is BENCHMARK.json.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findRoot walks up from the working directory to the checkout root,
// the directory that holds BENCHMARK.json.
func findRoot() (string, *contract, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var c contract
			if err := json.Unmarshal(data, &c); err != nil {
				return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return dir, &c, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", nil, errors.New("no BENCHMARK.json in this directory or above it")
		}
		dir = parent
	}
}

// result is what one workload process leaves behind: the contract's
// last-line object plus what a reader needs to trust it.
type result struct {
	Workload      string      `json:"workload"`
	Seed          int64       `json:"seed"`
	Seconds       int         `json:"seconds"`
	Traced        bool        `json:"traced"`
	Env           fingerprint `json:"environment"`
	Ops           opCounts    `json:"ops"`
	MaxLatenessMs float64     `json:"max_lateness_ms"`
	// Valid is false when the open-loop generator sent a call later
	// than the workload's latency limit: the schedule the numbers claim
	// was not the one sent.
	Valid   bool      `json:"valid"`
	Correct bool      `json:"correct"`
	Metrics metricSet `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "run this one workload in this process (default: all, one fresh process each)")
	seed := flag.Int64("seed", 1, "seed for images and arrival schedules")
	seconds := flag.Int("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	traceMode := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	runs := flag.Int("runs", 1, "runs per workload when running all; medians are reported")
	aa := flag.Bool("aa", false, "run two full sets of the same code and fail if they differ by more than the bounds")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, *workloadName, *seed, *seconds, *traceMode == 1, *runs, *aa)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, workloadName string, seed int64, seconds int, traced bool, runs int, aa bool) int {
	root, c, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if seconds <= 0 {
		seconds = c.RunSeconds
	}
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if workloadName == "" {
		err = runAll(ctx, root, scratch, c, seed, seconds, runs, aa)
	} else {
		spec, ok := workloadByName(workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workloadName)
			return 2
		}
		err = runWorkload(ctx, root, scratch, c, spec, seed, seconds, traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// setUps is how many times a run sets the program up; setup_s is the
// median, so one slow process start does not decide it.
const setUps = 3

// runWorkload is one workload in this process: inputs from the seed,
// set-up, the measured window(s), the checks, and the result.
func runWorkload(ctx context.Context, root, scratch string, c *contract, spec workloadSpec, seed int64, seconds int, traced bool) error {
	// The generator shares the process with the in-process servers; cap
	// it so a many-core host does not turn one workload into another.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	in, err := newInputs(spec, seed)
	if err != nil {
		return err
	}
	serveBin := ""
	if spec.kind == kindRouter {
		if serveBin, err = buildServeBinary(ctx, root, scratch); err != nil {
			return err
		}
	}
	var host hostCalibration
	if traced {
		host = calibrateHost(seed)
	}

	timedSetUp := func() (*target, float64, error) {
		t0 := time.Now()
		t, err := setUp(ctx, spec, in, serveBin, scratch)
		return t, time.Since(t0).Seconds(), err
	}
	t, setupS, err := timedSetUp()
	if err != nil {
		return err
	}
	defer t.close()

	res := result{Workload: spec.name, Seed: seed, Seconds: seconds, Traced: traced, Env: environment(root)}
	var ops []opRecord
	if traced {
		// Half the window untraced, half traced: the first gives the
		// baseline the tracing overhead is measured against.
		a, err := runPass(ctx, t, seconds/2, seed, false)
		if err != nil {
			return err
		}
		b, err := runPass(ctx, t, seconds-seconds/2, seed+1, true)
		if err != nil {
			return err
		}
		res.Metrics = perLayer(t, a, b, host)
		ops = append(a.ops, b.ops...)
		tracePath := filepath.Join(scratch, "trace-"+spec.name+".json")
		if err := writeChromeTrace(tracePath, b.spans); err != nil {
			return err
		}
		fmt.Printf("# %d spans written to %s\n", len(b.spans), tracePath)
	} else {
		p, err := runPass(ctx, t, seconds, seed, false)
		if err != nil {
			return err
		}
		rss, err := peakRSSMB(0)
		if err != nil {
			return err
		}
		for _, pid := range t.replicaPIDs() {
			r, err := peakRSSMB(pid)
			if err != nil {
				return err
			}
			rss += r
		}
		ops = p.ops
		// The remaining set-ups run after the window, so their garbage
		// is in neither the window's CPU time nor the peak RSS above.
		t.close()
		setupTimes := []float64{setupS}
		for len(setupTimes) < setUps {
			again, s, err := timedSetUp()
			if err != nil {
				return err
			}
			again.close()
			setupTimes = append(setupTimes, s)
		}
		res.Metrics = endToEnd(spec, p, median(setupTimes), rss)
	}

	res.Ops = countOps(ops)
	wrong := 0
	for _, r := range ops {
		if l := ms(r.lateness()); l > res.MaxLatenessMs {
			res.MaxLatenessMs = l
		}
		if r.status == statusWrong {
			wrong++
		}
	}
	res.Correct = wrong == 0
	res.Valid = res.MaxLatenessMs <= spec.limitMs
	return report(scratch, c, spec, res)
}

// report prints every metric by name and unit, stores the result file,
// and ends with the one-line JSON object the driver reads.
func report(scratch string, c *contract, spec workloadSpec, res result) error {
	decls := c.EndToEnd
	if res.Traced {
		decls = c.PerLayer
	}
	if len(res.Metrics) != len(decls) {
		return fmt.Errorf("%d metrics measured, BENCHMARK.json declares %d", len(res.Metrics), len(decls))
	}
	fmt.Printf("# %s\n", spec)
	fmt.Printf("# ops sent=%d ok=%d failed=%d shed=%d  max lateness %.3f ms\n",
		res.Ops.Sent, res.Ops.OK, res.Ops.Failed, res.Ops.Shed, res.MaxLatenessMs)
	if !res.Valid {
		fmt.Printf("# INVALID: the generator ran more than %g ms late\n", spec.limitMs)
	}
	for _, d := range decls {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		fmt.Printf("%-34s %14s %s\n", d.Name, formatValue(m.Value), m.Unit)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath(scratch, spec.name, res.Traced), data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Ops.Sent * spec.batch, (res.Ops.Sent - res.Ops.OK) * spec.batch, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func resultPath(scratch, workload string, traced bool) string {
	pass := "e2e"
	if traced {
		pass = "layers"
	}
	return filepath.Join(scratch, "result-"+workload+"-"+pass+".json")
}

// runChild re-executes this binary for one workload, so that peak RSS,
// arena pools and worker goroutines never carry over from one workload
// to the next, and returns the result file it wrote.
func runChild(ctx context.Context, scratch string, spec workloadSpec, seed int64, seconds int, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", spec.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", traceArg)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	// The child owns replica subprocesses: interrupt it so it can reap
	// them, and only kill it if it does not exit.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 30 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	data, err := os.ReadFile(resultPath(scratch, spec.name, traced))
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// runSet runs every workload runs times (seeds seed, seed+1, …) and
// returns, per workload, the median of each metric and the results.
func runSet(ctx context.Context, scratch string, seed int64, seconds, runs int, traced bool) (map[string]metricSet, []*result, error) {
	medians := map[string]metricSet{}
	var all []*result
	for _, spec := range workloads {
		values := map[string][]float64{}
		units := map[string]string{}
		for r := 0; r < runs; r++ {
			res, err := runChild(ctx, scratch, spec, seed+int64(r), seconds, traced)
			// An invalid run (the generator itself was stalled) is not
			// reported; it is measured again, twice at most.
			for retry := 0; err == nil && !res.Valid && retry < 2; retry++ {
				fmt.Printf("# %s: invalid run (generator %.1f ms late), measuring again\n", spec.name, res.MaxLatenessMs)
				res, err = runChild(ctx, scratch, spec, seed+int64(r), seconds, traced)
			}
			if err != nil {
				return nil, nil, err
			}
			if !res.Correct || res.Ops.OK != res.Ops.Sent || !res.Valid {
				return nil, nil, fmt.Errorf("%s: correct=%v valid=%v ops=%+v", spec.name, res.Correct, res.Valid, res.Ops)
			}
			all = append(all, res)
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		medians[spec.name] = metricSet{}
		for name, vs := range values {
			medians[spec.name].set(name, median(vs), units[name])
		}
	}
	return medians, all, nil
}

// printTable prints one row per metric and one column per workload.
func printTable(decls []metricDecl, sets map[string]metricSet) {
	fmt.Printf("\n%-34s %-7s", "metric", "unit")
	for _, spec := range workloads {
		fmt.Printf(" %14s", spec.name)
	}
	fmt.Println()
	for _, d := range decls {
		fmt.Printf("%-34s %-7s", d.Name, d.Unit)
		for _, spec := range workloads {
			fmt.Printf(" %14s", formatValue(sets[spec.name][d.Name].Value))
		}
		fmt.Println()
	}
}

// runAll is the one command: every workload, end-to-end then per-layer,
// each in a fresh process, outputs verified, one result file. With aa
// it instead runs the end-to-end set twice and compares.
func runAll(ctx context.Context, root, scratch string, c *contract, seed int64, seconds, runs int, aa bool) error {
	first, results, err := runSet(ctx, scratch, seed, seconds, runs, false)
	if err != nil {
		return err
	}
	if aa {
		second, _, err := runSet(ctx, scratch, seed, seconds, runs, false)
		if err != nil {
			return err
		}
		return compareSets(c, first, second)
	}
	layers, layerResults, err := runSet(ctx, scratch, seed, seconds, runs, true)
	if err != nil {
		return err
	}
	printTable(c.EndToEnd, first)
	printTable(c.PerLayer, layers)
	out := filepath.Join(scratch, "bench_result.json")
	data, err := json.MarshalIndent(struct {
		Env      fingerprint          `json:"environment"`
		EndToEnd map[string]metricSet `json:"end_to_end"`
		PerLayer map[string]metricSet `json:"per_layer"`
		Runs     []*result            `json:"runs"`
	}{environment(root), first, layers, append(results, layerResults...)}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nall outputs matched their references; results in %s\n", out)
	return nil
}

// compareSets prints both sets' end-to-end metrics with their relative
// gap and bound, and fails if any gap exceeds its bound.
func compareSets(c *contract, first, second map[string]metricSet) error {
	over := 0
	fmt.Printf("\n%-14s %-16s %12s %12s %8s %8s\n", "workload", "metric", "first", "second", "gap", "bound")
	for _, spec := range workloads {
		for _, d := range c.EndToEnd {
			a, b := first[spec.name][d.Name].Value, second[spec.name][d.Name].Value
			gap := 0.0
			if a != 0 {
				gap = math.Abs(b-a) / math.Abs(a)
			}
			flag := ""
			if gap > d.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-14s %-16s %12s %12s %7.2f%% %7.2f%%%s\n", spec.name, d.Name,
				formatValue(a), formatValue(b), 100*gap, 100*d.Bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric(s) differ between two runs of the same code by more than their bound", over)
	}
	return nil
}
