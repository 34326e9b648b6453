// Command capsnet-router is the sharded replica tier: it spawns N
// capsnet-serve replicas as subprocesses, supervises them through
// their lifecycle (spawn → wait /readyz → serve → drain →
// restart-on-crash with exponential backoff), probes their
// machine-readable /readyz load bodies, and routes classify traffic
// across them with the paper's inter-vault placement score
// S = 1/(αE + βM) generalized to replicas (see DESIGN.md §8):
// consistent-hash affinity while loads are even, least-loaded spill
// when a request's home replica falls behind.
//
// Endpoints:
//
//	POST /v1/classify   routed to a replica with retry + hedging budgets
//	GET  /v1/model      proxied from a ready replica
//	GET  /v1/replicas   fleet snapshot: URLs, PIDs, restarts, load
//	GET  /healthz       router process liveness
//	GET  /readyz        503 until at least one replica is ready
//	GET  /metrics       the cluster.Metrics registry as text:
//	                    router_replica_requests_total{replica,code}, retry /
//	                    hedge / deadline counters, the latency histogram and,
//	                    collected at scrape time, per-replica ready/restart/load
//	                    gauges and the SLO gauges (availability, p99, burn rate)
//	GET  /metrics/fleet every replica's /metrics re-exported with a leading
//	                    {replica} label plus exactly merged histograms
//	GET  /debug/requests/trace   router-side request timelines (Chrome trace JSON)
//	GET  /debug/requests/flight  tail-sampled flight recorder (5xx, 504, slow)
//	GET  /debug/trace/fleet?trace=<id>  one request's spans merged across the
//	                    router and every replica into a single Chrome trace
//	                    with per-process tracks (router, replica-0..N)
//
// Replica flags go after "--": everything following the separator is
// passed to every capsnet-serve verbatim (the router appends its own
// -addr 127.0.0.1:0 -log-format json so it can parse the bound port).
//
// Usage:
//
//	capsnet-router -replicas 3 [-addr :8090] [-serve-bin capsnet-serve]
//	               [-retries 4] [-hedge-delay 500ms] [-hedges 1]
//	               [-move-penalty 2] [-alpha 1] [-beta 1]
//	               -- -demo-classes 5 -max-batch 8
//
// SIGTERM/SIGINT drain the router and then the replica fleet.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pimcapsnet/internal/cluster"
	"pimcapsnet/internal/distribute"
)

func main() {
	addr := flag.String("addr", ":8090", "router listen address")
	serveBin := flag.String("serve-bin", "capsnet-serve", "capsnet-serve binary to spawn (path or $PATH name)")
	replicas := flag.Int("replicas", 3, "replica subprocesses to supervise")
	startTimeout := flag.Duration("start-timeout", 30*time.Second, "per-replica spawn-to-ready bound")
	stopTimeout := flag.Duration("stop-timeout", 10*time.Second, "per-replica SIGTERM drain bound before SIGKILL")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "replica /readyz load-probe period")
	retries := flag.Int("retries", 4, "per-request attempt budget (first attempt included)")
	hedgeDelay := flag.Duration("hedge-delay", 500*time.Millisecond, "unanswered-attempt delay before a hedge launches (<0 disables)")
	hedges := flag.Int("hedges", 1, "per-request hedging budget")
	budget := flag.Duration("budget", 0, "default end-to-end deadline assigned to requests arriving without an X-Deadline header (0 = unbounded)")
	expectedService := flag.Duration("expected-service", 100*time.Millisecond, "estimated replica round-trip time; hedges needing more than the remaining deadline budget are skipped")
	movePenalty := flag.Float64("move-penalty", cluster.DefaultMovePenalty, "placement movement charge M for leaving a request's home replica")
	alpha := flag.Float64("alpha", 1, "placement work coefficient α in S = 1/(αE + βM)")
	beta := flag.Float64("beta", 1, "placement movement coefficient β in S = 1/(αE + βM)")
	waitReady := flag.Int("wait-ready", 1, "replicas that must be ready before the router starts listening")
	traceSample := flag.Float64("trace-sample", 0, "fraction of routed requests to record span timelines for (0 disables, 1 records all)")
	traceBuffer := flag.Int("trace-buffer", 0, "completed request traces retained for /debug/requests/trace (0 = default 256)")
	flightBuffer := flag.Int("flight-buffer", 64, "flight-recorder capacity: bad requests (5xx, 504, slow) pinned with full span sets at /debug/requests/flight (0 disables)")
	slowThreshold := flag.Duration("slow-threshold", 0, "pin requests slower than this end-to-end in the flight recorder (0 disables the slow trigger)")
	sloTarget := flag.Float64("slo-target", cluster.DefaultSLOTarget, "availability objective for the rolling SLO tracker, in (0, 1)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	logFormat := flag.String("log-format", "text", "log output format: text | json")
	replicaLogs := flag.Bool("replica-logs", false, "forward replica stderr (prefixed [rN]) to the router's stderr")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "capsnet-router: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, slog.String("error", err.Error()))
		os.Exit(1)
	}

	mgrCfg := cluster.ManagerConfig{
		Binary:        *serveBin,
		Args:          flag.Args(), // everything after "--" goes to the replicas
		Replicas:      *replicas,
		StartTimeout:  *startTimeout,
		StopTimeout:   *stopTimeout,
		ProbeInterval: *probeInterval,
		Logger:        logger,
	}
	if *replicaLogs {
		mgrCfg.ReplicaStderr = os.Stderr
	}
	mgr, err := cluster.NewManager(mgrCfg)
	if err != nil {
		fatal("building manager", err)
	}
	mgr.Start()
	defer mgr.Stop()
	wrCtx, wrCancel := context.WithTimeout(context.Background(), *startTimeout)
	if err := cluster.WaitReady(wrCtx, mgr, *waitReady); err != nil {
		wrCancel()
		mgr.Stop()
		fatal("waiting for replicas", err)
	}
	wrCancel()

	disp, err := cluster.NewDispatcher(cluster.DispatcherConfig{
		Pool: mgr,
		Placer: cluster.Placer{
			Scorer:      distribute.Scorer{Alpha: *alpha, Beta: *beta},
			MovePenalty: *movePenalty,
		},
		Logger:              logger,
		MaxAttempts:         *retries,
		HedgeDelay:          *hedgeDelay,
		MaxHedges:           *hedges,
		DefaultBudget:       *budget,
		ExpectedServiceTime: *expectedService,
		TraceSample:         *traceSample,
		TraceBuffer:         *traceBuffer,
		FlightBuffer:        *flightBuffer,
		SlowThreshold:       *slowThreshold,
		SLOTarget:           *sloTarget,
	})
	if err != nil {
		mgr.Stop()
		fatal("building dispatcher", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		mgr.Stop()
		fatal("listening", err)
	}
	httpSrv := &http.Server{Handler: disp.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("routing",
		slog.String("addr", ln.Addr().String()),
		slog.Int("replicas", *replicas),
		slog.String("serve_bin", *serveBin),
		slog.Float64("alpha", *alpha),
		slog.Float64("beta", *beta),
		slog.Float64("move_penalty", *movePenalty),
	)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Info("draining", slog.String("signal", s.String()))
	case err := <-errCh:
		mgr.Stop()
		fatal("http server", err)
	}

	// Drain top-down: stop accepting client traffic, then drain the
	// replica fleet (SIGTERM → bounded wait → SIGKILL per replica).
	ctx, cancel := context.WithTimeout(context.Background(), *stopTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", slog.String("error", err.Error()))
	}
	mgr.Stop()
	logger.Info("drained, exiting")
}

// buildLogger constructs the process logger from the -log-level and
// -log-format flags (same grammar as capsnet-serve).
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}
