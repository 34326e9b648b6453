// Command capsnet-load is the open-loop capacity harness: it replays
// a seeded arrival schedule (internal/workload shapes: constant,
// diurnal, bursty, adversarial) against a live capsnet-serve replica
// or the capsnet-router tier, measures coordinated-omission-safe
// latency with internal/loadgen, correlates the run with the server's
// Figure-3 stage decomposition scraped from /metrics, optionally
// sweeps offered rate to locate the knee of the latency/throughput
// curve, and emits the machine-readable report the slo-gate CI job
// diffs against SLO_BASELINE.json (see internal/slogate).
//
// Against a server you run yourself:
//
//	go run ./cmd/capsnet-serve -demo-classes 3 &
//	go run ./cmd/capsnet-load -addr http://localhost:8080 -rate 50 -duration 5s
//
// Spawning its own replica (what `make slo-gate` does; flags after
// "--" go to the spawned capsnet-serve):
//
//	go build -o serve-bin ./cmd/capsnet-serve
//	go run ./cmd/capsnet-load -spawn ./serve-bin -rate 50 -duration 5s \
//	    -sweep 25,50,100,200 -baseline SLO_BASELINE.json -check-baseline -- -demo-classes 3
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/deadline"
	"pimcapsnet/internal/loadgen"
	"pimcapsnet/internal/serve"
	"pimcapsnet/internal/slogate"
	"pimcapsnet/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	target := flag.String("target", "serve", "tier being driven: serve | router (labels the report and picks the stage-metrics endpoint)")
	addr := flag.String("addr", "", "base URL of the tier (default http://localhost:8080 for serve, :8090 for router; ignored with -spawn)")
	spawn := flag.String("spawn", "", "path to a capsnet-serve binary to spawn for the run's lifetime (args after -- are passed through)")
	shapeName := flag.String("shape", "constant", "arrival shape: constant | diurnal | bursty | adversarial")
	rate := flag.Float64("rate", 50, "mean offered rate in req/s for the reference run")
	duration := flag.Duration("duration", 5*time.Second, "reference-run length")
	period := flag.Duration("period", 10*time.Second, "shape period (diurnal day / burst cycle / spike interval)")
	amplitude := flag.Float64("amplitude", 0.8, "diurnal swing fraction in [0,1]")
	burstFactor := flag.Float64("burst-factor", 8, "bursty: on-burst rate multiple")
	burstFraction := flag.Float64("burst-fraction", 0.1, "bursty: fraction of each period spent bursting")
	seed := flag.Int64("seed", 42, "schedule seed: same seed replays the identical arrival pattern")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	budget := flag.Duration("deadline", 0, "per-request end-to-end budget stamped as X-Deadline (0 = none)")
	sweepList := flag.String("sweep", "", "comma-separated offered rates to sweep for the knee (e.g. 25,50,100,200); empty skips the sweep")
	sweepDuration := flag.Duration("sweep-duration", 2*time.Second, "per-rate run length during the sweep")
	baseline := flag.String("baseline", "SLO_BASELINE.json", "SLO baseline path")
	update := flag.Bool("update-baseline", false, "write this run out as the new baseline")
	check := flag.Bool("check-baseline", false, "gate this run against the baseline (exit 1 on regression)")
	out := flag.String("out", "", "also write the run's report JSON here (the slo-gate CI artifact)")
	flag.Parse()

	kind, err := workload.ShapeByName(*shapeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	shape := workload.Shape{
		Kind: kind, Rate: *rate,
		Period: period.Seconds(), Amplitude: *amplitude,
		BurstFactor: *burstFactor, BurstFraction: *burstFraction,
	}
	if err := shape.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *target != "serve" && *target != "router" {
		fmt.Fprintf(os.Stderr, "unknown -target %q (want serve or router)\n", *target)
		return 2
	}

	// Ctrl-C stops dispatching and returns through the normal path, so
	// the deferred stop() below still reaps a -spawn'ed replica instead
	// of orphaning it.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	base := *addr
	if *spawn != "" {
		srv, err := spawnServe(*spawn, flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer srv.stop()
		base = srv.base
	} else if base == "" {
		if *target == "router" {
			base = "http://localhost:8090"
		} else {
			base = "http://localhost:8080"
		}
	}

	client := &http.Client{
		Timeout:   *timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 256},
	}

	// Size synthetic images from the advertised model geometry.
	var info serve.ModelInfo
	if err := getJSON(client, base+"/v1/model", &info); err != nil {
		fmt.Fprintf(os.Stderr, "fetching model info: %v (is the server running?)\n", err)
		return 2
	}
	bodies, err := buildBodies(info, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	httpTarget := &loadgen.HTTPTarget{
		Client: client,
		URL:    base + "/v1/classify",
		Bodies: bodies,
	}
	if *budget > 0 {
		d := *budget
		httpTarget.Decorate = func(r *http.Request) { deadline.Set(r.Header, time.Now().Add(d)) }
	}

	// The router's own /metrics carries router_* families; the merged
	// capsnet stage decomposition lives behind /metrics/fleet.
	stageURL := base + "/metrics"
	if *target == "router" {
		stageURL = base + "/metrics/fleet"
	}

	fmt.Printf("replaying %s shape at %.4g req/s for %v against %s (%s tier, seed %d)\n",
		shape.Kind, shape.Rate, duration, base, *target, *seed)
	before := scrapeStages(client, stageURL)
	res := loadgen.Run(ctx, httpTarget,
		loadgen.Options{Schedule: shape.Schedule(duration.Seconds(), *seed), Timeout: *timeout})
	shares := loadgen.StageShares(before, scrapeStages(client, stageURL))
	fmt.Println("  " + res.String())

	report := &loadgen.Report{
		Target: *target, Shape: shape.Kind.String(), Seed: *seed,
		DurationSeconds: duration.Seconds(),
		ReferenceRate:   shape.Rate,
		Offered:         res.Offered,
		Availability:    res.Availability(),
		P50:             res.Latency.Quantile(0.5),
		P99:             res.Latency.Quantile(0.99),
		P999:            res.Latency.Quantile(0.999),
		MaxLateness:     res.MaxLateness,
		Codes:           codeStrings(res.Codes),
		Stages:          shares,
	}
	printStages(shares)

	if *sweepList != "" {
		rates, err := parseRates(*sweepList)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Printf("\nsweeping offered rate for the knee (%v per point):\n", *sweepDuration)
		fmt.Printf("  %10s %10s %8s %10s %10s %10s\n", "offered", "achieved", "avail", "p50", "p99", "p999")
		for _, r := range rates {
			s := shape
			s.Rate = r
			pres := loadgen.Run(ctx, httpTarget,
				loadgen.Options{Schedule: s.Schedule(sweepDuration.Seconds(), *seed), Timeout: *timeout})
			p := loadgen.PointFromResult(r, pres)
			report.Sweep = append(report.Sweep, p)
			fmt.Printf("  %10.4g %10.4g %8.4f %9.4gs %9.4gs %9.4gs\n",
				p.OfferedRate, p.AchievedRate, p.Availability, p.P50, p.P99, p.P999)
			time.Sleep(200 * time.Millisecond) // drain between operating points
		}
		knee, idx, unsaturated := loadgen.FindKnee(report.Sweep, loadgen.KneeConfig{})
		report.KneeRate, report.KneeUnsaturated = knee, unsaturated
		switch {
		case idx < 0:
			fmt.Println("  knee: none — the lowest swept rate is already saturated")
		case unsaturated:
			fmt.Printf("  knee: ≥ %.4g req/s (sweep never saturated; true capacity lies beyond)\n", knee)
		default:
			fmt.Printf("  knee: %.4g req/s\n", knee)
		}
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted: partial run — skipping report, baseline, and gate actions")
		return 2
	}
	if *out != "" {
		if err := loadgen.SaveReport(*out, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if *update {
		b := &slogate.Baseline{
			Report: *report,
			Tolerances: slogate.Tolerances{
				MaxAvailabilityDrop: slogate.DefaultMaxAvailabilityDrop,
				MaxP99Factor:        slogate.DefaultMaxP99Factor,
				MaxP999Factor:       slogate.DefaultMaxP999Factor,
				MaxKneeDrop:         slogate.DefaultMaxKneeDrop,
				LatencyFloor:        slogate.DefaultLatencyFloor,
			},
		}
		if err := slogate.Save(*baseline, b); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Printf("\nwrote baseline %s\n", *baseline)
	}
	if *check {
		b, err := slogate.Load(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		rep := slogate.Check(b, report)
		fmt.Printf("\nSLO gate vs %s:\n", *baseline)
		for _, line := range rep.Lines {
			fmt.Println("  " + line)
		}
		if !rep.OK() {
			fmt.Println("\nSLO GATE FAILED:")
			for _, f := range rep.Failures {
				fmt.Println("  ✗ " + f)
			}
			return 1
		}
		fmt.Println("  SLO gate passed")
	}
	return 0
}

// spawnedServe is one capsnet-serve subprocess owned by the load run.
type spawnedServe struct {
	cmd  *exec.Cmd
	base string
}

// spawnServe boots the binary on an ephemeral port and waits for its
// "serving" log line and a 200 /readyz, mirroring how the router tier
// adopts replicas.
func spawnServe(binary string, extraArgs []string) (*spawnedServe, error) {
	args := append(append([]string{}, extraArgs...),
		"-addr", "127.0.0.1:0", "-log-format", "json", "-log-level", "info")
	cmd := exec.Command(binary, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning %s: %w", binary, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "serving" && rec.Addr != "" {
				select {
				case addrCh <- rec.Addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		s := &spawnedServe{cmd: cmd, base: "http://" + addr}
		client := &http.Client{Timeout: time.Second}
		for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			resp, err := client.Get(s.base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		s.stop()
		return nil, fmt.Errorf("spawned server never went ready")
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("spawned server never logged its address")
	}
}

// stop drains the spawned server: SIGTERM, bounded wait, then kill.
func (s *spawnedServe) stop() {
	if s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// buildBodies pre-serializes one classify body per class so request
// marshaling never sits on the load path.
func buildBodies(info serve.ModelInfo, seed int64) ([][]byte, error) {
	spec := dataset.Spec{
		Name: "loadgen", Classes: info.Classes,
		Channels: info.Channels, H: info.Height, W: info.Width,
		Noise: 0.05, Seed: seed,
	}
	gen := dataset.NewGenerator(spec)
	bodies := make([][]byte, info.Classes)
	for c := range bodies {
		img := make([]float32, info.Channels*info.Height*info.Width)
		gen.Sample(img, c)
		body, err := json.Marshal(serve.ClassifyRequest{Image: img})
		if err != nil {
			return nil, err
		}
		bodies[c] = body
	}
	return bodies, nil
}

// scrapeStages fetches a /metrics exposition and extracts the stage
// sums; scrape failures degrade to an empty decomposition rather than
// failing the load run.
func scrapeStages(client *http.Client, url string) map[string]float64 {
	resp, err := client.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil
	}
	return loadgen.ParseStageSums(string(body))
}

// printStages renders the Figure-3 correlation table.
func printStages(shares []loadgen.StageShare) {
	if len(shares) == 0 {
		fmt.Println("  (no stage decomposition: /metrics scrape failed or server predates internal/obs)")
		return
	}
	fmt.Println("\nserver-side stage decomposition over the load window (Figure 3 counterpart):")
	fmt.Printf("  %-24s %12s %7s\n", "stage", "total", "share")
	for _, s := range shares {
		fmt.Printf("  %-24s %11.4gs %6.1f%%\n", s.Stage, s.Seconds, 100*s.Share)
	}
}

// parseRates parses the -sweep list.
func parseRates(list string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad sweep rate %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// codeStrings converts the status-code map to JSON-friendly keys.
func codeStrings(codes map[int]int) map[string]int {
	out := make(map[string]int, len(codes))
	for c, n := range codes {
		out[strconv.Itoa(c)] = n
	}
	return out
}

func getJSON(client *http.Client, url string, dst any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}
