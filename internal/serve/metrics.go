package serve

import (
	"strconv"

	"pimcapsnet/internal/obs"
)

// Serving-pipeline stage names (the capsnet_stage_seconds label
// values the HTTP/batching layers observe; forward-pass internals use
// capsnet.Stage* names). Together the five pipeline stages partition
// a request's wall time, so their sums approximately account for
// end-to-end latency.
const (
	// StageAdmission is body decode + validation in the HTTP handler.
	StageAdmission = "admission"
	// StageQueueWait is time between queue admission and the batch
	// dispatcher collecting the request.
	StageQueueWait = "queue_wait"
	// StageBatchAssembly is time between collection and the batch
	// launching (waiting for the busy runner, or for an idle runner's
	// fill timer when MaxDelay > 0).
	StageBatchAssembly = "batch_assembly"
	// StageForward is the batched forward pass (whose interior the
	// capsnet.Stage* stages further decompose).
	StageForward = "forward"
	// StageEncode is response serialization.
	StageEncode = "encode"
)

// defaultStageBuckets are the bucket bounds for every per-stage
// histogram: finer at the microsecond end than the request-latency
// layout because single stages (one routing iteration, one softmax
// pass) are much shorter than whole requests.
var defaultStageBuckets = []float64{
	0.000025, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Metrics is everything the /metrics endpoint exposes: handles
// registered on the embedded registry, which renders them (WriteText,
// Handler). All handles are safe for concurrent use.
type Metrics struct {
	*obs.Registry

	// Requests counts incoming classify requests, admitted or not.
	Requests *obs.Counter
	// responses holds capsnet_responses_total{code=...}, one counter
	// per responseCodes entry and a final "other".
	responses [len(responseCodes) + 1]*obs.Counter

	// Batches counts launched batches, RoutingIterations the routing
	// iterations they ran, Traces the request traces retained in the
	// ring buffer.
	Batches, RoutingIterations, Traces *obs.Counter

	// Robustness counters (see the README's "Robustness & fault
	// injection" section for the degradation ladder they instrument):
	// batches whose inference panicked and was isolated by the runner,
	// batches failed by the BatchDeadline watchdog, samples whose
	// routing was re-run with exact math after the approximate path
	// produced non-finite values, and checkpoints that failed structural
	// verification at load time.
	PanicsRecovered, WatchdogBatches, RoutingFallbacks, CheckpointRejections *obs.Counter

	// Overload-control counters (README "Overload & graceful
	// degradation"): batches cooperatively aborted mid-routing because
	// every rider had expired, requests rejected on arrival because
	// their propagated deadline had already passed, and requests served
	// per brownout {level}. Level 0 always exists; a server with a
	// brownout controller declares the rest up front.
	BatchesAborted, DeadlinesExpired *obs.Counter
	BrownoutRequests                 *obs.CounterVec

	// Latency is the end-to-end request latency in seconds, observed
	// by the HTTP handler (queueing + batching + forward + encode).
	Latency *obs.Histogram
	// BatchSize is the per-launched-batch request count.
	BatchSize *obs.Histogram
	// Stages is capsnet_stage_seconds{stage=...}: one histogram per
	// observed pipeline or forward-pass stage, created on first
	// observation so capsnet can add stages without a schema change
	// here.
	Stages *obs.HistogramVec

	// Scrape-time sources, reporting zero until a server wires them:
	// the brownout controller's level (a server with brownout disabled
	// is permanently at full fidelity), the admission queue's depth,
	// the bytes the network's scratch-arena pool holds resident
	// (capsnet.Network.ArenaBytes), and the bytes of the capsule
	// layer's W the kernel backs with 2 MB pages
	// (capsnet.Network.WeightHugePageBytes).
	BrownoutLevel       func() int
	QueueDepth          func() int
	ArenaBytes          func() uint64
	WeightHugePageBytes func() uint64
}

// responseCodes is the fixed set of status codes the server emits;
// anything else lands in the "other" counter.
var responseCodes = [...]int{200, 400, 404, 405, 413, 429, 500, 503, 504}

// NewMetrics registers the metric set with the server's bucket
// layouts: latency buckets from 0.5ms to 5s, batch-size buckets
// covering power-of-two micro-batch caps up to 64, stage buckets from
// 25µs up.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{
		Registry:            r,
		BrownoutLevel:       func() int { return 0 },
		QueueDepth:          func() int { return 0 },
		ArenaBytes:          func() uint64 { return 0 },
		WeightHugePageBytes: func() uint64 { return 0 },
	}
	r.BuildInfo("capsnet_build_info")
	m.Requests = r.Counter("capsnet_requests_total")
	responses := r.CounterVec("capsnet_responses_total", "code")
	for i, code := range responseCodes {
		m.responses[i] = responses.With(strconv.Itoa(code))
	}
	m.responses[len(responseCodes)] = responses.With("other")
	r.GaugeFunc("capsnet_queue_depth", func() uint64 { return uint64(m.QueueDepth()) })
	r.GaugeFunc("capsnet_arena_bytes", func() uint64 { return m.ArenaBytes() })
	r.GaugeFunc("capsnet_weight_hugepage_bytes", func() uint64 { return m.WeightHugePageBytes() })
	m.Batches = r.Counter("capsnet_batches_total")
	m.RoutingIterations = r.Counter("capsnet_routing_iterations_total")
	m.Traces = r.Counter("capsnet_request_traces_total")
	m.PanicsRecovered = r.Counter("capsnet_panics_recovered_total")
	m.WatchdogBatches = r.Counter("capsnet_watchdog_failed_batches_total")
	m.RoutingFallbacks = r.Counter("capsnet_routing_exact_fallbacks_total")
	m.CheckpointRejections = r.Counter("capsnet_checkpoint_load_rejections_total")
	m.BatchesAborted = r.Counter("capsnet_batch_aborted_total")
	m.DeadlinesExpired = r.Counter("capsnet_deadline_expired_total")
	r.GaugeFunc("capsnet_brownout_level", func() uint64 { return uint64(m.BrownoutLevel()) })
	m.BrownoutRequests = r.CounterVec("capsnet_brownout_requests_total", "level")
	m.BrownoutRequests.With("0")
	r.Collect(obs.CollectRuntime)
	m.Latency = r.Histogram("capsnet_request_latency_seconds",
		0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5)
	m.BatchSize = r.Histogram("capsnet_batch_size", 1, 2, 4, 8, 16, 32, 64)
	m.Stages = r.HistogramVec("capsnet_stage_seconds", "stage", defaultStageBuckets...)
	return m
}

// IncResponse counts one response with the given HTTP status.
func (m *Metrics) IncResponse(code int) {
	for i, c := range responseCodes {
		if c == code {
			m.responses[i].Inc()
			return
		}
	}
	m.responses[len(responseCodes)].Inc()
}
