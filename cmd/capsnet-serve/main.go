// Command capsnet-serve is the batching inference server: it loads a
// CapsNet checkpoint (written by capsnet-infer -save) and serves
// classification over HTTP, micro-batching concurrent requests so the
// routing procedure's softmax/squash work is shared across a batch —
// the software analogue of PIM-CapsNet's batch-shared Alg. 1 and its
// host/HMC pipelining.
//
// Endpoints:
//
//	POST /v1/classify           {"image":[...C·H·W floats...]} → class, probs, poses
//	GET  /v1/model              input geometry and routing config
//	GET  /healthz               process liveness (always 200)
//	GET  /readyz                traffic readiness (503 while draining)
//	GET  /metrics               the serve.Metrics registry as text: request, batch, robustness
//	                            and brownout counters, queue/arena/brownout gauges, latency,
//	                            batch-size and per-stage histograms, runtime gauges
//	GET  /debug/requests/trace  sampled request timelines as Chrome trace JSON
//	                            (?last=N; ?trace=<id>[&format=spans] for one request)
//	GET  /debug/requests/flight tail-sampled flight recorder: bad requests (5xx, slow,
//	                            brownout, aborted batch) pinned with full span sets
//	GET  /debug/pprof/          Go profiling (profile, heap, goroutine, trace, ...)
//
// Every response carries an X-Trace-Id header; with -log-format json
// each request logs one structured record carrying the same ID, and
// with -trace-sample > 0 sampled requests additionally record a full
// span timeline (admission → queue wait → batch assembly → conv →
// primary caps → prediction vectors → each routing iteration → encode)
// retrievable from /debug/requests/trace and written to -trace-out at
// shutdown.
//
// Usage:
//
//	capsnet-serve -checkpoint net.gob [-addr :8080] [-max-batch 8]
//	              [-max-delay 0] [-queue 64] [-timeout 5s] [-math exact]
//	              [-log-level info] [-log-format text|json]
//	              [-trace-sample 0.1] [-trace-buffer 256] [-trace-out run.json]
//	capsnet-serve -demo-classes 5    # seeded untrained demo network
//
// Chaos drills (used by the capsnet-router e2e): -chaos-stall 2s
// stalls the first -chaos-stall-arm batches before inference, and
// -chaos-corrupt 4 poisons images of the first -chaos-corrupt-arm
// batches with seeded non-finite values (-chaos-seed for replay).
//
// SIGTERM/SIGINT trigger graceful shutdown: readiness flips to 503,
// open connections and queued batches drain, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/fault"
	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	checkpoint := flag.String("checkpoint", "", "CapsNet checkpoint to serve (from capsnet-infer -save)")
	demoClasses := flag.Int("demo-classes", 0, "serve a seeded untrained TinyConfig network with this many classes instead of a checkpoint")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "micro-batch size cap")
	maxDelay := flag.Duration("max-delay", 0, "how long an idle runner waits for a partial batch to fill (0 launches at once)")
	queueSize := flag.Int("queue", serve.DefaultQueueSize, "admission queue bound (backpressure beyond this)")
	timeout := flag.Duration("timeout", serve.DefaultRequestTimeout, "per-request deadline")
	drain := flag.Duration("drain-timeout", serve.DefaultDrainTimeout, "graceful-shutdown drain bound")
	batchDeadline := flag.Duration("batch-deadline", serve.DefaultBatchDeadline, "watchdog bound on one batch's inference (stalled batches are failed, not queued behind)")
	mathName := flag.String("math", "exact", "routing numerics: exact | pe | pe-norecovery")
	logLevel := flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	logFormat := flag.String("log-format", "text", "log output format: text | json")
	traceSample := flag.Float64("trace-sample", 0, "fraction of requests to record full span timelines for (0 disables, 1 records all)")
	traceBuffer := flag.Int("trace-buffer", obs.DefaultTraceBuffer, "completed request traces retained for /debug/requests/trace")
	traceOut := flag.String("trace-out", "", "write the retained request traces as Chrome trace JSON here at shutdown")
	flightBuffer := flag.Int("flight-buffer", obs.DefaultFlightBuffer, "flight-recorder capacity: bad requests (5xx, slow, brownout, aborted batch) pinned with full span sets at /debug/requests/flight (0 disables)")
	slowThreshold := flag.Duration("slow-threshold", 0, "pin requests slower than this end-to-end in the flight recorder (0 disables the slow trigger)")
	chaosStall := flag.Duration("chaos-stall", 0, "CHAOS: stall armed batches this long before inference (0 disables)")
	chaosStallArm := flag.Int("chaos-stall-arm", 1, "CHAOS: how many batches -chaos-stall fires on")
	chaosCorrupt := flag.Int("chaos-corrupt", 0, "CHAOS: non-finite values injected per image on armed batches (0 disables)")
	chaosCorruptArm := flag.Int("chaos-corrupt-arm", 1, "CHAOS: how many batches -chaos-corrupt fires on")
	chaosSeed := flag.Int64("chaos-seed", 1, "CHAOS: fault-injection seed (logged for replay)")
	chaosPressure := flag.Duration("chaos-pressure", 0, "CHAOS: minimum per-batch delay for armed batches, creating queue pressure (0 disables)")
	chaosPressureMax := flag.Duration("chaos-pressure-max", 0, "CHAOS: maximum per-batch pressure delay (defaults to -chaos-pressure: a fixed delay)")
	chaosPressureArm := flag.Int("chaos-pressure-arm", 1, "CHAOS: how many batches -chaos-pressure fires on")
	brownout := flag.Bool("brownout", false, "enable the adaptive-fidelity brownout controller (shed routing iterations under sustained queue pressure)")
	brownoutEngage := flag.Duration("brownout-engage", 25*time.Millisecond, "queue wait at/above which brownout reads overload pressure")
	brownoutRecover := flag.Duration("brownout-recover", 2*time.Millisecond, "queue wait at/below which brownout reads calm (must be below -brownout-engage)")
	brownoutHold := flag.Duration("brownout-hold", 250*time.Millisecond, "sustained signal needed per brownout level step (up or down)")
	brownoutApprox := flag.Bool("brownout-approx", false, "add a final brownout level that switches routing to the approximate fp32 PE math")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "capsnet-serve: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, slog.String("error", err.Error()))
		os.Exit(1)
	}

	// Metrics exist before the model loads so checkpoint rejections
	// land on the same /metrics endpoint the server exposes.
	metrics := serve.NewMetrics()
	network, err := loadNetwork(*checkpoint, *demoClasses, metrics)
	if err != nil {
		fatal("loading network", err)
	}
	defer network.Close()
	mathOps, err := routingMath(*mathName)
	if err != nil {
		fatal("selecting routing math", err)
	}

	srv, err := serve.NewWithMetrics(network, mathOps, serve.Config{
		MaxBatch:       *maxBatch,
		MaxDelay:       *maxDelay,
		QueueSize:      *queueSize,
		RequestTimeout: *timeout,
		DrainTimeout:   *drain,
		BatchDeadline:  *batchDeadline,
		TraceSample:    *traceSample,
		TraceBuffer:    *traceBuffer,
		FlightBuffer:   *flightBuffer,
		SlowThreshold:  *slowThreshold,
		Logger:         logger,
		Brownout: serve.BrownoutConfig{
			Enabled:          *brownout,
			EngageThreshold:  *brownoutEngage,
			RecoverThreshold: *brownoutRecover,
			Hold:             *brownoutHold,
			AllowApprox:      *brownoutApprox,
		},
		PreRunHook: chaosHook(logger, *chaosSeed, *chaosStall, *chaosStallArm, *chaosCorrupt, *chaosCorruptArm,
			*chaosPressure, *chaosPressureMax, *chaosPressureArm),
	}, metrics)
	if err != nil {
		fatal("building server", err)
	}

	// Listen explicitly (rather than ListenAndServe) so the bound
	// address is known before serving starts — with -addr :0 the chosen
	// port is in the startup log line, which the e2e smoke test parses.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listening", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	cfg := network.Config
	logger.Info("serving",
		slog.String("addr", ln.Addr().String()),
		slog.String("input", fmt.Sprintf("%dx%dx%d", cfg.InputChannels, cfg.InputH, cfg.InputW)),
		slog.Int("classes", cfg.Classes),
		slog.String("routing_mode", network.Digit.Mode.String()),
		slog.Int("routing_iterations", cfg.RoutingIterations),
		slog.Int("max_batch", *maxBatch),
		slog.Duration("max_delay", *maxDelay),
		slog.Float64("trace_sample", *traceSample),
	)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Info("draining", slog.String("signal", s.String()))
	case err := <-errCh:
		fatal("http server", err)
	}

	// Graceful shutdown: stop advertising readiness, stop accepting
	// connections and wait for in-flight handlers, then drain the
	// batcher.
	srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", slog.String("error", err.Error()))
	}
	if err := srv.Close(ctx); err != nil {
		logger.Warn("batcher drain", slog.String("error", err.Error()))
	}
	if *traceOut != "" {
		if err := exportTraces(srv, *traceBuffer, *traceOut); err != nil {
			logger.Warn("writing trace file", slog.String("error", err.Error()))
		} else {
			logger.Info("wrote request traces", slog.String("path", *traceOut),
				slog.Uint64("completed_traces", srv.Tracer().Completed()))
		}
	}
	logger.Info("drained, exiting")
}

// chaosHook assembles the -chaos-* fault-injection hooks (armed at
// startup, seeded for replay) into one serve.Config.PreRunHook, or nil
// when no chaos flag is set — the zero-cost default. Chaos drills and
// the router e2e use these to make a replica stall or corrupt its
// first batches while the tier above must keep clients whole.
func chaosHook(logger *slog.Logger, seed int64, stall time.Duration, stallArm int, corrupt, corruptArm int,
	pressure, pressureMax time.Duration, pressureArm int) func([][]float32) {
	var hooks []fault.BatchHook
	if stall > 0 {
		g := &fault.Gate{}
		g.Arm(stallArm)
		hooks = append(hooks, fault.StallBatchHook(g, stall))
	}
	if corrupt > 0 {
		g := &fault.Gate{}
		g.Arm(corruptArm)
		hooks = append(hooks, fault.CorruptBatchHook(fault.New(seed), g, corrupt))
	}
	if pressure > 0 {
		if pressureMax < pressure {
			pressureMax = pressure
		}
		g := &fault.Gate{}
		g.Arm(pressureArm)
		hooks = append(hooks, fault.PressureBatchHook(fault.New(seed), g, pressure, pressureMax))
	}
	if len(hooks) == 0 {
		return nil
	}
	logger.Warn("chaos hooks armed",
		slog.Int64("seed", seed),
		slog.Duration("stall", stall), slog.Int("stall_arm", stallArm),
		slog.Int("corrupt", corrupt), slog.Int("corrupt_arm", corruptArm),
		slog.Duration("pressure", pressure), slog.Duration("pressure_max", pressureMax),
		slog.Int("pressure_arm", pressureArm))
	return fault.ChainBatchHooks(hooks...)
}

// buildLogger constructs the process logger from the -log-level and
// -log-format flags.
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

// exportTraces writes the retained request timelines as a Chrome
// trace-event JSON file (load it in Perfetto or chrome://tracing):
// the sampled ring plus any flight-recorder pins not already in it,
// so the shutdown dump always contains the bad requests.
func exportTraces(srv *serve.Server, bufferSize int, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr := srv.Tracer()
	traces := tr.Last(bufferSize)
	if fl := srv.Flight(); fl != nil {
		traces = append(traces, fl.Traces(traces)...)
	}
	if err := obs.WriteChromeTrace(f, traces, tr.Epoch()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadNetwork opens and verifies the checkpoint (corrupt files are
// rejected with a typed error and counted in m), or builds the seeded
// demo network when -demo-classes is set.
func loadNetwork(checkpoint string, demoClasses int, m *serve.Metrics) (*capsnet.Network, error) {
	switch {
	case checkpoint != "" && demoClasses > 0:
		return nil, errors.New("use either -checkpoint or -demo-classes, not both")
	case checkpoint != "":
		return serve.LoadCheckpoint(checkpoint, m)
	case demoClasses > 0:
		return capsnet.New(capsnet.TinyConfig(demoClasses))
	default:
		return nil, errors.New("need -checkpoint (see capsnet-infer -save) or -demo-classes")
	}
}

func routingMath(name string) (capsnet.RoutingMath, error) {
	switch name {
	case "exact":
		return capsnet.ExactMath{}, nil
	case "pe":
		return capsnet.NewPEMath(), nil
	case "pe-norecovery":
		return capsnet.NewPEMathNoRecovery(), nil
	}
	return nil, fmt.Errorf("unknown -math %q (want exact, pe, or pe-norecovery)", name)
}
