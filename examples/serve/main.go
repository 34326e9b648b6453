// Example serve is a load-generating client for the serving stack: it
// reads the model geometry from /v1/model, generates matching seeded
// synthetic images, fires concurrent classify requests so the server's
// micro-batcher has something to batch, and finally prints the
// batching- and latency-related lines of /metrics.
//
// It drives either tier. Against a single replica:
//
//	go run ./cmd/capsnet-serve -demo-classes 5 &
//	go run ./examples/serve -target serve -addr http://localhost:8080 -n 64 -c 8
//
// Against the sharded replica tier (-target router also switches the
// default address to the router's :8090 and swaps the per-stage
// breakdown for the router's placement/retry/hedge summary):
//
//	go run ./cmd/capsnet-router -replicas 3 -- -demo-classes 5 &
//	go run ./examples/serve -target router -n 64 -c 8
//
// Adding -fleet to a router run also scrapes /metrics/fleet and prints
// the exactly merged cross-replica latency histogram plus a
// per-replica health table (requests, batches, brownout level, aborted
// batches, expired deadlines).
//
// The default firing mode is closed-loop — -c goroutines each wait for
// a response before sending the next request — which is
// coordinated-omission-prone: a server stall slows the client down
// with it, so queueing delay never reaches the latency numbers. Pass
// -open-loop to fire on a seeded arrival schedule via internal/loadgen
// instead (latency then includes the wait from each request's
// scheduled arrival); cmd/capsnet-load is the full capacity harness
// built on the same generator.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pimcapsnet/internal/dataset"
	"pimcapsnet/internal/deadline"
	"pimcapsnet/internal/loadgen"
	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/serve"
	"pimcapsnet/internal/workload"
)

func main() {
	target := flag.String("target", "serve", "tier to drive: serve (one capsnet-serve) | router (capsnet-router replica tier)")
	addr := flag.String("addr", "", "base URL (default http://localhost:8080 for -target serve, :8090 for router)")
	n := flag.Int("n", 64, "number of requests")
	concurrency := flag.Int("c", 8, "concurrent client goroutines")
	seed := flag.Int64("seed", 42, "synthetic image seed")
	budget := flag.Duration("deadline", 0, "per-request end-to-end budget sent as the X-Deadline header (0 = none); expired requests come back 504")
	fleet := flag.Bool("fleet", false, "with -target router: also scrape /metrics/fleet and print the merged fleet view with a per-replica health table")
	openLoop := flag.Bool("open-loop", false, "fire on a seeded Poisson arrival schedule (coordinated-omission-safe) instead of the default closed-loop worker pool")
	rate := flag.Float64("rate", 50, "with -open-loop: mean offered rate in req/s; the run lasts ~n/rate seconds")
	flag.Parse()

	if *target != "serve" && *target != "router" {
		fmt.Fprintf(os.Stderr, "unknown -target %q (want serve or router)\n", *target)
		os.Exit(1)
	}
	if *fleet && *target != "router" {
		fmt.Fprintln(os.Stderr, "-fleet needs -target router: only the router aggregates replica metrics")
		os.Exit(1)
	}
	if *addr == "" {
		if *target == "router" {
			*addr = "http://localhost:8090"
		} else {
			*addr = "http://localhost:8080"
		}
	}

	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: *concurrency},
	}

	// Discover the model geometry so the images fit.
	var info serve.ModelInfo
	if err := getJSON(client, *addr+"/v1/model", &info); err != nil {
		fmt.Fprintf(os.Stderr, "fetching model info: %v (is capsnet-serve running?)\n", err)
		os.Exit(1)
	}
	fmt.Printf("model: %dx%dx%d → %d classes, %s routing × %d iterations\n",
		info.Channels, info.Height, info.Width, info.Classes, info.RoutingMode, info.RoutingIterations)

	spec := dataset.Spec{
		Name: "client", Classes: info.Classes,
		Channels: info.Channels, H: info.Height, W: info.Width,
		Noise: 0.05, Seed: *seed,
	}
	gen := dataset.NewGenerator(spec)
	bodies := make([][]byte, *n)
	for i := range bodies {
		img := make([]float32, info.Channels*info.Height*info.Width)
		gen.Sample(img, i%info.Classes)
		body, err := json.Marshal(serve.ClassifyRequest{Image: img})
		if err != nil {
			panic(err)
		}
		bodies[i] = body
	}

	// Fire the load.
	if *openLoop {
		fireOpenLoop(client, *addr, bodies, *rate, *seed, *budget)
	} else {
		fireClosedLoop(client, *addr, bodies, *concurrency, *budget)
	}

	// Show what the tier we hit measured: a single replica exposes the
	// capsnet_* batching/stage histograms, the router tier its
	// placement/retry/hedge families.
	resp, err := client.Get(*addr + "/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fetching metrics: %v\n", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	samples := obs.ParsePromText(text)
	if *target == "router" {
		printRouterSummary(samples)
		if *fleet {
			fleetResp, err := client.Get(*addr + "/metrics/fleet")
			if err != nil {
				fmt.Fprintf(os.Stderr, "fetching fleet metrics: %v\n", err)
				os.Exit(1)
			}
			fleetText, _ := io.ReadAll(fleetResp.Body)
			fleetResp.Body.Close()
			printFleetSummary(obs.ParsePromText(fleetText))
		}
		return
	}
	fmt.Println("\nserver /metrics (batching + latency):")
	printSamples(samples, func(s obs.PromSample) bool {
		switch s.Name {
		case "capsnet_request_latency_seconds", "capsnet_queue_depth", "capsnet_routing_iterations_total",
			"capsnet_brownout_level", "capsnet_deadline_expired_total":
			return true
		}
		return strings.HasPrefix(s.Name, "capsnet_batch")
	})
	printStageBreakdown(samples, *target)
}

// fireClosedLoop drives the default worker-pool load: c goroutines,
// each waiting for a response before sending the next request.
func fireClosedLoop(client *http.Client, addr string, bodies [][]byte, concurrency int, budget time.Duration) {
	var ok, rejected, expired atomic.Int64
	var batchSum atomic.Int64
	n := len(bodies)
	work := make(chan int, n)
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				req, err := http.NewRequest(http.MethodPost, addr+"/v1/classify", bytes.NewReader(bodies[i]))
				if err != nil {
					panic(err)
				}
				req.Header.Set("Content-Type", "application/json")
				if budget > 0 {
					// The absolute deadline is stamped per attempt so
					// queueing inside the client pool does not silently
					// eat the budget before the request leaves.
					deadline.Set(req.Header, time.Now().Add(budget))
				}
				resp, err := client.Do(req)
				if err != nil {
					fmt.Fprintf(os.Stderr, "request %d: %v\n", i, err)
					continue
				}
				var cr serve.ClassifyResponse
				switch resp.StatusCode {
				case http.StatusOK:
					json.NewDecoder(resp.Body).Decode(&cr)
					ok.Add(1)
					batchSum.Add(int64(cr.Batch))
				case http.StatusTooManyRequests:
					io.Copy(io.Discard, resp.Body)
					rejected.Add(1)
				case http.StatusGatewayTimeout:
					io.Copy(io.Discard, resp.Body)
					expired.Add(1)
				default:
					io.Copy(io.Discard, resp.Body)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("%d ok, %d rejected (429), %d expired (504) in %v — %.1f req/s, mean ridden batch %.2f\n",
		ok.Load(), rejected.Load(), expired.Load(), elapsed.Round(time.Millisecond),
		float64(ok.Load())/elapsed.Seconds(),
		float64(batchSum.Load())/float64(max(ok.Load(), 1)))
	fmt.Println("note: closed-loop measurement (coordinated-omission-prone) — the pool slows down with the server," +
		" so queueing delay is hidden; rerun with -open-loop (or use cmd/capsnet-load) for schedule-anchored latency")
}

// fireOpenLoop replays a seeded constant-rate Poisson schedule through
// internal/loadgen: arrivals fire on time regardless of in-flight
// work, and each latency is measured from the request's scheduled
// arrival, so server stalls show up as the queueing delay they cause.
func fireOpenLoop(client *http.Client, addr string, bodies [][]byte, rate float64, seed int64, budget time.Duration) {
	shape := workload.Shape{Kind: workload.ShapeConstant, Rate: rate}
	schedule := shape.Schedule(float64(len(bodies))/rate, seed)
	target := &loadgen.HTTPTarget{
		Client: client,
		URL:    addr + "/v1/classify",
		Bodies: bodies,
	}
	if budget > 0 {
		target.Decorate = func(r *http.Request) { deadline.Set(r.Header, time.Now().Add(budget)) }
	}
	res := loadgen.Run(context.Background(), target, loadgen.Options{Schedule: schedule})
	fmt.Println("open-loop (coordinated-omission-safe, latency measured from scheduled arrival):")
	fmt.Println("  " + res.String())
}

// printSamples prints the exposition lines keep selects.
func printSamples(samples obs.PromSamples, keep func(obs.PromSample) bool) {
	for _, s := range samples {
		if keep(s) {
			fmt.Println("  " + s.String())
		}
	}
}

// printRouterSummary renders the router tier's view of the load: how
// placement spread requests over the replicas, and what faults cost
// (retries, hedges) instead of the single-replica stage breakdown.
func printRouterSummary(samples obs.PromSamples) {
	fmt.Println("\nrouter /metrics (tier hit: router — placement, retries, hedges):")
	printSamples(samples, func(s obs.PromSample) bool {
		switch s.Name {
		case "router_retries_total", "router_hedges_total", "router_hedges_skipped_total",
			"router_deadline_exhausted_total", "router_replica_restarts_total",
			"router_request_latency_seconds_count", "router_request_latency_seconds_sum":
			return true
		}
		return strings.HasPrefix(s.Name, "router_slo_")
	})
	reqs := samples.Family("router_replica_requests_total")
	replicas, codes := labelValues(reqs, "replica"), labelValues(reqs, "code")
	if len(replicas) == 0 {
		return
	}
	fmt.Println("\nper-replica request distribution (router_replica_requests_total):")
	printReplicaTable(replicas, codes, 8, func(replica string, col int) (float64, bool) {
		v, _ := reqs.Value("router_replica_requests_total", "replica", replica, "code", codes[col])
		return v, true
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
func printReplicaTable(replicas, headers []string, width int, cell func(replica string, col int) (float64, bool)) {
	fmt.Printf("  %-10s", "replica")
	for _, h := range headers {
		fmt.Printf(" %*s", width, h)
	}
	fmt.Println()
	for _, r := range replicas {
		fmt.Printf("  %-10s", r)
		for col := range headers {
			if v, ok := cell(r, col); ok {
				fmt.Printf(" %*.0f", width, v)
			} else {
				fmt.Printf(" %*s", width, "-")
			}
		}
		fmt.Println()
	}
}

// printFleetSummary renders the /metrics/fleet view: the exactly
// merged cross-replica latency histogram, the scrape bookkeeping, and
// a per-replica health table with the degradation columns (brownout
// level, aborted batches, expired deadlines) next to the traffic ones.
func printFleetSummary(samples obs.PromSamples) {
	fmt.Println("\nfleet /metrics/fleet (merged across replicas):")
	printSamples(samples, func(s obs.PromSample) bool {
		switch s.Name {
		case "capsnet_request_latency_seconds_sum", "capsnet_request_latency_seconds_count",
			"capsnet_request_latency_seconds_overflow_total":
			return len(s.Labels) == 0
		}
		return strings.HasPrefix(s.Name, "router_fleet_")
	})

	// Per-replica health table from the {replica}-labelled re-export.
	families := []string{"capsnet_requests_total", "capsnet_batches_total", "capsnet_brownout_level",
		"capsnet_batch_aborted_total", "capsnet_deadline_expired_total"}
	headers := []string{"requests", "batches", "brownout", "aborted", "expired"}
	replicas := labelValues(samples.Family(families[0]), "replica")
	if len(replicas) == 0 {
		fmt.Println("\nno per-replica samples in the fleet exposition (all scrapes failed?)")
		return
	}
	fmt.Println("\nper-replica health (re-exported replica /metrics):")
	printReplicaTable(replicas, headers, 9, func(replica string, col int) (float64, bool) {
		return samples.Value(families[col], "replica", replica)
	})
}

// stageStat is one capsnet_stage_seconds{stage} histogram.
type stageStat struct {
	name          string
	count         float64
	sum, p50, p99 float64
}

// printStageBreakdown renders the per-stage latency table from the
// capsnet_stage_seconds histograms — where a served request's time
// actually goes, the production counterpart of the paper's Figure 3
// execution-time breakdown.
func printStageBreakdown(samples obs.PromSamples, tier string) {
	var stages []stageStat
	var total float64
	for _, s := range samples.Family("capsnet_stage_seconds_sum") {
		st := stageStat{name: s.Label("stage")}
		st.sum, _ = s.Float()
		st.count, _ = samples.Value("capsnet_stage_seconds_count", "stage", st.name)
		st.p50, _ = samples.Value("capsnet_stage_seconds", "stage", st.name, "quantile", "0.5")
		st.p99, _ = samples.Value("capsnet_stage_seconds", "stage", st.name, "quantile", "0.99")
		stages = append(stages, st)
		total += st.sum
	}
	if len(stages) == 0 {
		fmt.Println("\nno stage histograms yet (is the server older than the observability layer?)")
		return
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].sum > stages[j].sum })

	fmt.Printf("\nper-stage latency breakdown (capsnet_stage_seconds, tier hit: %s):\n", tier)
	fmt.Printf("  %-24s %8s %12s %10s %10s %7s\n", "stage", "count", "total", "p50", "p99", "share")
	for _, s := range stages {
		share := 0.0
		if total > 0 {
			share = 100 * s.sum / total
		}
		fmt.Printf("  %-24s %8.0f %12s %10s %10s %6.1f%%\n",
			s.name, s.count, fmtSeconds(s.sum), fmtSeconds(s.p50), fmtSeconds(s.p99), share)
	}
}

// fmtSeconds renders a duration in the most readable unit.
func fmtSeconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.1fµs", s*1e6)
	}
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
