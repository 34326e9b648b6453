package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync/atomic"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/wire"
)

// Server wires a capsnet.Network, the micro-batcher, and the metrics
// into an http.Handler. Construct with New, mount Handler, and call
// Close for graceful shutdown.
type Server struct {
	cfg     Config
	net     *capsnet.Network
	batcher *Batcher
	metrics *Metrics
	mux     *http.ServeMux
	// draining flips readiness to 503 the moment shutdown begins, so
	// load balancers stop routing before in-flight work finishes.
	draining atomic.Bool
	imgLen   int

	// requests issues trace IDs, records span timelines, and serves
	// them at /debug/requests/{trace,flight}.
	requests *obs.Requests
	// logger receives one structured record per classify request when
	// non-nil.
	logger *slog.Logger
}

// New builds and starts a server over net. The network's weights must
// stay immutable while the server runs (see capsnet.ForwardBatch's
// concurrency contract). mathOps selects the routing numerics —
// capsnet.ExactMath{} for host numerics, capsnet.NewPEMath() for the
// PIM processing-element approximations.
func New(network *capsnet.Network, mathOps capsnet.RoutingMath, cfg Config) (*Server, error) {
	return NewWithMetrics(network, mathOps, cfg, nil)
}

// NewWithMetrics is New with an externally created metric set, so the
// process can count events that happen before the server exists (e.g.
// checkpoint load rejections via LoadCheckpoint) on the same /metrics
// endpoint. A nil m allocates a fresh set.
func NewWithMetrics(network *capsnet.Network, mathOps capsnet.RoutingMath, cfg Config, m *Metrics) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		m = NewMetrics()
	}
	// The brownout controller exists only when enabled; the nil checks
	// below keep the disabled server's forward path untouched (and
	// bit-identical — see TestBrownoutDisabledBitIdentical).
	var br *brownout
	if cfg.Brownout.Enabled {
		br = newBrownout(cfg.Brownout, network.Config.RoutingIterations)
		m.BrownoutLevel = br.Level
		for lvl := 0; lvl < br.levels(); lvl++ {
			m.BrownoutRequests.With(strconv.Itoa(lvl))
		}
	}
	run := func(images [][]float32) []Prediction {
		out := network.ForwardBatch(images, mathOps)
		// Everything the response needs is copied out below, so the
		// Output's scratch arena goes back to the network's pool as soon
		// as this function returns — the step that keeps steady-state
		// inference allocation-free.
		defer out.Release()
		nc, dd := network.Config.Classes, network.Config.DigitDim
		preds := make([]Prediction, len(images))
		if out.Aborted {
			// Cooperative abort: every rider already expired, so no one
			// reads these predictions — the sentinel lets the batcher
			// count the abort.
			for k := range preds {
				preds[k] = Prediction{Err: ErrBatchAborted}
			}
			return preds
		}
		classes := out.Predictions()
		for k := range images {
			probs := make([]float32, nc)
			copy(probs, out.Lengths.Data()[k*nc:(k+1)*nc])
			poses := make([][]float32, nc)
			for j := 0; j < nc; j++ {
				pose := make([]float32, dd)
				copy(pose, out.Capsules.Data()[(k*nc+j)*dd:(k*nc+j+1)*dd])
				poses[j] = pose
			}
			preds[k] = Prediction{Class: classes[k], Probs: probs, Poses: poses}
		}
		// Degradation ladder: samples the routing guard recovered with
		// exact math are counted; samples still non-finite fail alone
		// with a typed error instead of emitting NaN JSON.
		if n := len(out.ExactFallbacks); n > 0 {
			m.RoutingFallbacks.Add(uint64(n))
		}
		for _, k := range out.NonFinite {
			preds[k] = Prediction{Err: ErrNonFinite}
		}
		return preds
	}
	b := NewBatcher(cfg, run, m, network.Config.RoutingIterations)
	// Cooperative cancellation: the routing loop polls the batcher's
	// cancel flag between iterations (an atomic load — inactive cost is
	// one branch per iteration, and polling never alters results).
	network.Cancel = b.CancelRequested
	if br != nil {
		b.brown = br
		network.IterationLimit = br.iterationCap
	}
	// Attach the forward-pass stage hook: the recorder owns the clock
	// (capsnet stays free of time sources and of any obs import), feeds
	// every stage duration into the per-stage histograms, and lands
	// spans on whichever batch trace the runner attaches. Note this
	// sets network.Stages, so the network passed in is observed for as
	// long as it lives.
	rec := obs.NewStageRecorder(cfg.Clock, func(stage string, iter int, seconds float64) {
		m.Stages.With(stage).Observe(seconds)
	})
	network.Stages = rec
	b.rec = rec
	// Scrape-time gauges over the network's scratch-arena pool and its
	// W's 2 MB pages (callback pattern, like QueueDepth).
	m.ArenaBytes = network.ArenaBytes
	m.WeightHugePageBytes = network.WeightHugePageBytes
	s := newServer(network, cfg, b, m)
	b.Start()
	return s, nil
}

// newServer wires an already-constructed (possibly not yet started)
// batcher; split from New so tests can inject instrumented batchers.
func newServer(network *capsnet.Network, cfg Config, b *Batcher, m *Metrics) *Server {
	m.QueueDepth = b.QueueDepth
	s := &Server{
		cfg: cfg, net: network, batcher: b, metrics: m, imgLen: network.ImageLen(),
		logger: cfg.Logger, requests: obs.NewRequests(cfg.RequestsConfig, cfg.Clock),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/classify", s.handleClassify)
	s.mux.HandleFunc("/v1/model", s.handleModel)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metrics", m.Handler())
	s.requests.Mount(s.mux)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Requests exposes the request recorder (tests and the shutdown trace
// export in cmd/capsnet-serve read it).
func (s *Server) Requests() *obs.Requests { return s.requests }

// Handler returns the root handler (mount it on an http.Server or
// httptest.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the metric set (the e2e tests and benchmarks read
// it directly).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close performs the batcher half of graceful shutdown: readiness
// flips to 503 immediately, then queued and in-flight batches drain
// within cfg.DrainTimeout (further bounded by ctx, so a caller with
// its own shutdown budget can cut the drain short). Call it after
// http.Server.Shutdown has stopped accepting connections.
func (s *Server) Close(ctx context.Context) error {
	s.draining.Store(true)
	ctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	return s.batcher.Close(ctx)
}

// StartDraining flips /readyz to 503 without stopping the batcher,
// for the window between SIGTERM and http.Server.Shutdown completing.
func (s *Server) StartDraining() { s.draining.Store(true) }

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Inc()
	start := s.cfg.Clock.Now()
	// Every request gets a trace ID (response header + log
	// correlation); t is nil unless the request records spans.
	id, t := s.requests.Start(r.Header, start)
	if parent := r.Header.Get(obs.ParentSpanHeader); parent != "" {
		t.SetParent(parent)
	}
	r = r.WithContext(obs.WithTrace(r.Context(), id, t))
	r.Body = http.MaxBytesReader(w, r.Body, wire.ClassifyBodyLimit(s.imgLen))
	code, body, flightReasons := s.classify(r)
	s.metrics.IncResponse(code)
	if code == http.StatusTooManyRequests {
		// Backpressure: a slot frees up after at most one batch fill,
		// so an immediate retry is reasonable.
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(obs.TraceIDHeader, id)
	w.WriteHeader(code)
	encStart := s.cfg.Clock.Now()
	json.NewEncoder(w).Encode(body)
	end := s.cfg.Clock.Now()
	s.metrics.Stages.With(StageEncode).Observe(end.Sub(encStart).Seconds())
	t.Add(StageEncode, -1, encStart, end)
	s.requests.Finish(t, code, start, end, s.metrics.BrownoutLevel(), flightReasons...)
	if t.Sampled() {
		s.metrics.Traces.Inc()
	}
	latency := end.Sub(start).Seconds()
	s.metrics.Latency.Observe(latency)
	if s.logger != nil {
		lvl := slog.LevelInfo
		switch {
		case code >= 500:
			lvl = slog.LevelError
		case code >= 400:
			lvl = slog.LevelWarn
		}
		batch := 0
		if resp, ok := body.(wire.ClassifyResponse); ok {
			batch = resp.Batch
		}
		s.logger.LogAttrs(r.Context(), lvl, "classify",
			slog.String("trace_id", id),
			slog.Int("status", code),
			slog.Float64("latency_seconds", latency),
			slog.Int("batch", batch),
			slog.Bool("sampled", t.Sampled()),
		)
	}
}

// errorBody is the JSON error payload.
type errorBody struct {
	Error string `json:"error"`
}

// classify runs the request through validation and the batcher. The
// third return lists caller-known flight-recorder pin reasons (batch
// aborted) the status code alone cannot convey.
func (s *Server) classify(r *http.Request) (int, any, []string) {
	if r.Method != http.MethodPost {
		return http.StatusMethodNotAllowed, errorBody{Error: "POST only"}, nil
	}
	aStart := s.cfg.Clock.Now()
	var req wire.ClassifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge, errorBody{
				Error: fmt.Sprintf("body over %d bytes, the bound for a %d-pixel image", tooLarge.Limit, s.imgLen),
			}, nil
		}
		return http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding body: %v", err)}, nil
	}
	if len(req.Image) != s.imgLen {
		return http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("image has %d values, want %d (C×H×W = %d×%d×%d)",
				len(req.Image), s.imgLen, s.net.Config.InputChannels, s.net.Config.InputH, s.net.Config.InputW),
		}, nil
	}
	for i, v := range req.Image {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("image[%d] is %v; pixels must be finite", i, v),
			}, nil
		}
	}
	// Admission closes here: decode + validation done, the request
	// enters the batching pipeline. Rejected requests never reach the
	// pipeline, so they record no admission stage.
	aEnd := s.cfg.Clock.Now()
	s.metrics.Stages.With(StageAdmission).Observe(aEnd.Sub(aStart).Seconds())
	obs.TraceFrom(r.Context()).Add(StageAdmission, -1, aStart, aEnd)
	// End-to-end deadline propagation: an upstream-supplied absolute
	// deadline bounds this request, capped by RequestTimeout so a
	// generous client budget cannot pin a request here forever. A
	// deadline already in the past is rejected up front — running
	// inference for a caller that stopped waiting is pure waste.
	dl, hasDL, err := wire.DeadlineFromRequest(r.Header)
	if err != nil {
		return http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid %s header: %v", wire.DeadlineHeader, err)}, nil
	}
	now := s.cfg.Clock.Now()
	if hasDL && !dl.After(now) {
		s.metrics.DeadlinesExpired.Inc()
		return http.StatusGatewayTimeout, errorBody{Error: "deadline already expired on arrival"}, nil
	}
	budget := s.cfg.RequestTimeout
	if hasDL {
		budget = min(dl.Sub(now), budget)
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	pred, batch, err := s.batcher.Submit(ctx, req.Image)
	switch {
	case err == nil:
		return http.StatusOK, wire.ClassifyResponse{Class: pred.Class, Probs: pred.Probs, Poses: pred.Poses, Batch: batch}, nil
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, errorBody{Error: "admission queue full, retry later"}, nil
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, errorBody{Error: "server shutting down"}, nil
	case errors.Is(err, context.DeadlineExceeded):
		if hasDL {
			s.metrics.DeadlinesExpired.Inc()
		}
		return http.StatusGatewayTimeout, errorBody{Error: "request deadline exceeded"}, nil
	case errors.Is(err, ErrBatchAborted):
		// Defensive: abort predictions only exist once every rider
		// expired, so normally ctx.Err() wins the Submit select first.
		return http.StatusGatewayTimeout, errorBody{Error: "request deadline exceeded"},
			[]string{obs.FlightReasonBatchAborted}
	case errors.Is(err, ErrNonFinite):
		return http.StatusInternalServerError, errorBody{Error: "model produced non-finite output for this input (exact-math fallback did not recover it)"}, nil
	case errors.Is(err, ErrBatchPanic):
		return http.StatusInternalServerError, errorBody{Error: "inference failed for this batch; the server recovered and keeps serving"}, nil
	case errors.Is(err, ErrBatchTimeout):
		return http.StatusInternalServerError, errorBody{Error: "inference exceeded the batch deadline and was abandoned"}, nil
	default:
		return http.StatusInternalServerError, errorBody{Error: err.Error()}, nil
	}
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	cfg := s.net.Config
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(wire.ModelInfo{
		Channels:          cfg.InputChannels,
		Height:            cfg.InputH,
		Width:             cfg.InputW,
		Classes:           cfg.Classes,
		DigitDim:          cfg.DigitDim,
		RoutingIterations: cfg.RoutingIterations,
		RoutingMode:       s.net.Digit.Mode.String(),
	})
}

// handleHealthz reports process liveness: always 200 while the
// process can serve HTTP at all.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// Load snapshots the current load signals (the /readyz body).
func (s *Server) Load() wire.Load {
	status := "ready"
	if s.draining.Load() {
		status = "draining"
	}
	return wire.Load{
		Status:         status,
		QueueDepth:     s.batcher.QueueDepth(),
		QueueCapacity:  s.cfg.QueueSize,
		Inflight:       s.batcher.Inflight(),
		BatchOccupancy: float64(s.batcher.LastBatchSize()) / float64(s.cfg.MaxBatch),
		MaxBatch:       s.cfg.MaxBatch,
		BodyLimit:      wire.ClassifyBodyLimit(s.imgLen),
		ReplyLimit:     wire.ClassifyReplyLimit(s.net.Config.Classes, s.net.Config.DigitDim),
		PID:            os.Getpid(),
	}
}

// handleReadyz reports readiness to take traffic: 503 once draining,
// with the wire.Load JSON body in both states.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	info := s.Load()
	w.Header().Set("Content-Type", "application/json")
	if info.Status != "ready" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(info)
}
