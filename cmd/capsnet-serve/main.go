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
//	              [-flight-buffer 64] [-slow-threshold 0]
//	              [-brownout [-brownout-engage 25ms] [-brownout-recover 2ms]
//	                         [-brownout-hold 250ms]]
//	capsnet-serve -demo-classes 5    # seeded untrained demo network
//
// The six observability flags (-trace-sample, -trace-buffer,
// -flight-buffer, -slow-threshold, -log-level, -log-format) are bound
// by obs.BindFlags, the same helper capsnet-router uses.
//
// Chaos drills (used by the capsnet-router e2e): -chaos-stall 2s
// stalls the first batch before inference, -chaos-corrupt 4 poisons
// the images of the first batch with seeded non-finite values, and
// -chaos-pressure 20ms [-chaos-pressure-max 35ms] delays every batch
// by a seeded amount. The seed is fixed and logged for replay.
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
	"math"
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
	mathName := flag.String("math", "exact", "routing numerics: exact | pe")
	obsFlags := obs.BindFlags(flag.CommandLine)
	traceOut := flag.String("trace-out", "", "write the retained request traces as Chrome trace JSON here at shutdown")
	chaosStall := flag.Duration("chaos-stall", 0, "CHAOS: stall the first batch this long before inference (0 disables)")
	chaosCorrupt := flag.Int("chaos-corrupt", 0, "CHAOS: non-finite values injected per image of the first batch (0 disables)")
	chaosPressure := flag.Duration("chaos-pressure", 0, "CHAOS: minimum delay added to every batch, creating queue pressure (0 disables)")
	chaosPressureMax := flag.Duration("chaos-pressure-max", 0, "CHAOS: maximum per-batch pressure delay (defaults to -chaos-pressure: a fixed delay)")
	brownout := flag.Bool("brownout", false, "enable the adaptive-fidelity brownout controller (shed routing iterations under sustained queue pressure)")
	brownoutEngage := flag.Duration("brownout-engage", 25*time.Millisecond, "queue wait at/above which brownout reads overload pressure")
	brownoutRecover := flag.Duration("brownout-recover", 2*time.Millisecond, "queue wait at/below which brownout reads calm (must be below -brownout-engage)")
	brownoutHold := flag.Duration("brownout-hold", 250*time.Millisecond, "sustained signal needed per brownout level step (up or down)")
	flag.Parse()

	logger, err := obsFlags.BuildLogger()
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
		RequestsConfig: obsFlags.Requests,
		Logger:         logger,
		Brownout: serve.BrownoutConfig{
			Enabled:          *brownout,
			EngageThreshold:  *brownoutEngage,
			RecoverThreshold: *brownoutRecover,
			Hold:             *brownoutHold,
		},
		PreRunHook: chaosHook(logger, *chaosStall, *chaosCorrupt, *chaosPressure, *chaosPressureMax),
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
		slog.Float64("trace_sample", obsFlags.Requests.TraceSample),
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
		if err := exportTraces(srv.Requests(), *traceOut); err != nil {
			logger.Warn("writing trace file", slog.String("error", err.Error()))
		} else {
			logger.Info("wrote request traces", slog.String("path", *traceOut),
				slog.Uint64("completed_traces", srv.Requests().Tracer().Completed()))
		}
	}
	logger.Info("drained, exiting")
}

// chaosSeed seeds the -chaos-* injectors; it is logged with them so
// a drill can be replayed.
const chaosSeed = 1

// chaosHook assembles the -chaos-* fault-injection hooks into one
// serve.Config.PreRunHook, or nil when no chaos flag is set — the
// zero-cost default. Stall and corrupt fire on the first batch only;
// pressure slows every batch. Chaos drills and the router e2e use
// these to make a replica misbehave while the tier above must keep
// clients whole.
func chaosHook(logger *slog.Logger, stall time.Duration, corrupt int, pressure, pressureMax time.Duration) func([][]float32) {
	var hooks []fault.BatchHook
	if stall > 0 {
		g := &fault.Gate{}
		g.Arm(1)
		hooks = append(hooks, fault.StallBatchHook(g, stall))
	}
	if corrupt > 0 {
		g := &fault.Gate{}
		g.Arm(1)
		hooks = append(hooks, fault.CorruptBatchHook(fault.New(chaosSeed), g, corrupt))
	}
	pressureMax = max(pressureMax, pressure)
	if pressure > 0 {
		g := &fault.Gate{}
		g.Arm(math.MaxInt)
		hooks = append(hooks, fault.PressureBatchHook(fault.New(chaosSeed), g, pressure, pressureMax))
	}
	if len(hooks) == 0 {
		return nil
	}
	logger.Warn("chaos hooks armed",
		slog.Int64("seed", chaosSeed),
		slog.Duration("stall", stall),
		slog.Int("corrupt", corrupt),
		slog.Duration("pressure", pressure), slog.Duration("pressure_max", pressureMax))
	return fault.ChainBatchHooks(hooks...)
}

// exportTraces writes the retained request timelines — the sampled
// ring plus any flight-recorder pins not already in it, so the dump
// always contains the bad requests — as a Chrome trace-event JSON file
// (load it in Perfetto or chrome://tracing).
func exportTraces(req *obs.Requests, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := req.WriteChromeTrace(f); err != nil {
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
	}
	return nil, fmt.Errorf("unknown -math %q (want exact or pe)", name)
}
