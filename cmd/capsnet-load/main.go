// Command capsnet-load is the open-loop capacity harness: it replays
// a seeded arrival schedule (internal/workload shapes: constant,
// diurnal, bursty, adversarial) against a live capsnet-serve replica
// or the capsnet-router tier, measures coordinated-omission-safe
// latency with internal/loadgen, correlates the run with the server's
// Figure-3 stage decomposition scraped from /metrics, optionally
// sweeps offered rate to locate the knee of the latency/throughput
// curve, and emits the machine-readable report the slo-gate compares
// (see internal/slogate): with -parent it gates this run against the
// parent's report from the same schedule. It is the one program in
// this module that fires load.
//
// Against a server you run yourself:
//
//	go run ./cmd/capsnet-serve -demo-classes 3 &
//	go run ./cmd/capsnet-load -addr http://localhost:8080 -rate 50 -duration 5s
//
// With -target router it also prints the router's fleet view after
// the reference run, from the same /metrics/fleet scrape that closes
// the stage window: retry/hedge/deadline counters, the per-replica
// request distribution, and a per-replica health table (requests,
// batches, brownout level, aborted batches, expired deadlines):
//
//	go run ./cmd/capsnet-router -replicas 3 -- -demo-classes 5 &
//	go run ./cmd/capsnet-load -target router -rate 50 -duration 5s
//
// Spawning its own replica, once per side, as `make slo-gate` does
// (flags after "--" go to the spawned capsnet-serve): the parent's
// run writes its report, the change's run is gated against it and
// exits 1 on a regression:
//
//	go run ./cmd/capsnet-load -spawn ./serve-parent -rate 50 -duration 5s \
//	    -sweep 25,50,100,200 -out SLO_base.json -- -demo-classes 3
//	go run ./cmd/capsnet-load -spawn ./serve-change -rate 50 -duration 5s \
//	    -sweep 25,50,100,200 -parent SLO_base.json -out SLO_pr.json -- -demo-classes 3
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pimcapsnet/internal/cluster"
	"pimcapsnet/internal/loadgen"
	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/slogate"
	"pimcapsnet/internal/wire"
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
	parentPath := flag.String("parent", "", "report of the parent's run over the same schedule: gate this run against it (exit 1 on regression)")
	out := flag.String("out", "", "also write the run's report JSON here (the slo-gate CI artifact)")
	flag.Parse()

	// Every flag is checked, and every schedule built, before a replica
	// is spawned or the model fetched: a run that would offer nothing
	// is a usage error, not a panic halfway through a sweep.
	if *duration <= 0 {
		fmt.Fprintf(os.Stderr, "-duration %v must be positive\n", *duration)
		return 2
	}
	if *sweepDuration <= 0 {
		fmt.Fprintf(os.Stderr, "-sweep-duration %v must be positive\n", *sweepDuration)
		return 2
	}
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
	schedule := shape.Schedule(duration.Seconds(), *seed)
	if len(schedule) == 0 {
		fmt.Fprintf(os.Stderr, "-rate %g over -duration %v schedules no arrivals (seed %d); raise either\n", shape.Rate, *duration, *seed)
		return 2
	}
	var rates []float64
	var sweepSchedules [][]float64
	if *sweepList != "" {
		if rates, err = parseRates(*sweepList); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		for _, r := range rates {
			s := shape
			s.Rate = r
			sched := s.Schedule(sweepDuration.Seconds(), *seed)
			if len(sched) == 0 {
				fmt.Fprintf(os.Stderr, "-sweep rate %g over -sweep-duration %v schedules no arrivals (seed %d); raise either\n", r, *sweepDuration, *seed)
				return 2
			}
			sweepSchedules = append(sweepSchedules, sched)
		}
	}
	var parent *loadgen.Report
	if *parentPath != "" {
		if parent, err = loadgen.LoadReport(*parentPath); err == nil && parent.Offered == 0 {
			err = errors.New("holds no load run")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "-parent %s: %v\n", *parentPath, err)
			return 2
		}
	}

	// Ctrl-C stops dispatching and returns through the normal path, so
	// the deferred Stop below still reaps a -spawn'ed replica instead
	// of orphaning it.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	base := *addr
	if *spawn != "" {
		// The replica runs under the router tier's supervisor: spawn,
		// "serving" line, /readyz barrier, restart with backoff, and a
		// SIGTERM drain (SIGKILL after its bound) when Stop runs.
		cfg := cluster.ManagerConfig{
			Binary: *spawn, Args: flag.Args(),
			StartTimeout: 30 * time.Second,
			Logger:       slog.New(slog.NewTextHandler(os.Stderr, nil)),
		}
		m, err := cluster.NewManager(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		m.Start()
		defer m.Stop()
		readyCtx, readyCancel := context.WithTimeout(ctx, cfg.StartTimeout)
		err = cluster.WaitReady(readyCtx, m, 1)
		readyCancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		base = m.Snapshot()[0].URL
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
	var info wire.ModelInfo
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
		httpTarget.Decorate = func(r *http.Request) { wire.SetDeadline(r.Header, time.Now().Add(d)) }
	}

	// The router's own /metrics carries router_* families; the merged
	// capsnet stage decomposition lives behind /metrics/fleet.
	stageURL := base + "/metrics"
	if *target == "router" {
		stageURL = base + "/metrics/fleet"
	}

	fmt.Printf("replaying %s shape at %.4g req/s for %v against %s (%s tier, seed %d)\n",
		shape.Kind, shape.Rate, duration, base, *target, *seed)
	before := scrape(client, stageURL)
	res := loadgen.Run(ctx, httpTarget, loadgen.Options{Schedule: schedule, Timeout: *timeout})
	after := scrape(client, stageURL)
	shares := loadgen.StageShares(loadgen.ParseStageSums(before), loadgen.ParseStageSums(after))
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
	if *target == "router" {
		printRouterView(obs.ParsePromText([]byte(after)))
	}

	if len(rates) > 0 {
		fmt.Printf("\nsweeping offered rate for the knee (%v per point):\n", *sweepDuration)
		fmt.Printf("  %10s %10s %8s %10s %10s %10s\n", "offered", "achieved", "avail", "p50", "p99", "p999")
		for i, r := range rates {
			pres := loadgen.Run(ctx, httpTarget, loadgen.Options{Schedule: sweepSchedules[i], Timeout: *timeout})
			p := loadgen.PointFromResult(r, pres)
			report.Sweep = append(report.Sweep, p)
			fmt.Printf("  %10.4g %10.4g %8.4f %9.4gs %9.4gs %9.4gs\n",
				p.OfferedRate, p.AchievedRate, p.Availability, p.P50, p.P99, p.P999)
			time.Sleep(200 * time.Millisecond) // drain between operating points
		}
		knee, idx, unsaturated := loadgen.FindKnee(report.Sweep)
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
		fmt.Fprintln(os.Stderr, "interrupted: partial run — skipping the report and the gate")
		return 2
	}
	if *out != "" {
		if err := loadgen.SaveReport(*out, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if parent != nil {
		rep := slogate.Check(parent, report)
		fmt.Printf("\nSLO gate vs parent %s:\n", *parentPath)
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

// buildBodies pre-serializes one classify body per class so request
// marshaling never sits on the load path. Pixels are seeded uniform
// draws in [0, 1): what an image shows does not change what it costs
// to classify, so the load client needs nothing of the model but its
// geometry.
func buildBodies(info wire.ModelInfo, seed int64) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, info.Classes)
	for c := range bodies {
		img := make([]float32, info.Channels*info.Height*info.Width)
		for i := range img {
			img[i] = rng.Float32()
		}
		body, err := json.Marshal(wire.ClassifyRequest{Image: img})
		if err != nil {
			return nil, err
		}
		bodies[c] = body
	}
	return bodies, nil
}

// scrape fetches a /metrics exposition; a failed scrape degrades to
// an empty one (no stage decomposition, empty router tables) rather
// than failing the load run.
func scrape(client *http.Client, url string) string {
	resp, err := client.Get(url)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return ""
	}
	return string(body)
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

// printRouterView renders the router's side of a /metrics/fleet
// scrape, cumulative since the router started: its retry, hedge,
// deadline and SLO series, how placement spread requests over the
// replicas, and each replica's health from its re-exported /metrics.
func printRouterView(fleet obs.PromSamples) {
	fmt.Println("\nrouter summary (/metrics/fleet, cumulative):")
	for _, s := range fleet {
		switch s.Name {
		case "router_retries_total", "router_hedges_total", "router_hedges_skipped_total",
			"router_deadline_exhausted_total", "router_replica_restarts_total",
			"router_request_latency_seconds_count", "router_request_latency_seconds_sum",
			"router_fleet_replicas_scraped", "router_fleet_scrape_failures":
			fmt.Println("  " + s.String())
		default:
			if strings.HasPrefix(s.Name, "router_slo_") {
				fmt.Println("  " + s.String())
			}
		}
	}

	reqs := fleet.Family("router_replica_requests_total")
	codes := labelValues(reqs, "code")
	fmt.Println("\nper-replica request distribution (router_replica_requests_total by code):")
	printReplicaTable(labelValues(reqs, "replica"), codes, func(replica string, col int) (float64, bool) {
		return reqs.Value("router_replica_requests_total", "replica", replica, "code", codes[col])
	})

	families := []string{"capsnet_requests_total", "capsnet_batches_total", "capsnet_brownout_level",
		"capsnet_batch_aborted_total", "capsnet_deadline_expired_total"}
	fmt.Println("\nper-replica health (re-exported replica /metrics):")
	printReplicaTable(labelValues(fleet.Family(families[0]), "replica"),
		[]string{"requests", "batches", "brownout", "aborted", "expired"},
		func(replica string, col int) (float64, bool) {
			return fleet.Value(families[col], "replica", replica)
		})
}

// labelValues returns the distinct values one label takes across a
// family, sorted.
func labelValues(family obs.PromSamples, key string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range family {
		if v := s.Label(key); v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// printReplicaTable prints one row per replica and one column per
// header; a cell without a value prints as "-".
func printReplicaTable(replicas, headers []string, cell func(replica string, col int) (float64, bool)) {
	if len(replicas) == 0 {
		fmt.Println("  (no per-replica series: the /metrics/fleet scrape failed)")
		return
	}
	fmt.Printf("  %-10s", "replica")
	for _, h := range headers {
		fmt.Printf(" %9s", h)
	}
	fmt.Println()
	for _, r := range replicas {
		fmt.Printf("  %-10s", r)
		for col := range headers {
			if v, ok := cell(r, col); ok {
				fmt.Printf(" %9.0f", v)
			} else {
				fmt.Printf(" %9s", "-")
			}
		}
		fmt.Println()
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
