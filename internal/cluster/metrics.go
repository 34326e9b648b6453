package cluster

import (
	"pimcapsnet/internal/obs"
)

// latencyBounds are the router request-latency bucket upper bounds in
// seconds — the serve latency layout shifted up slightly, since a
// routed request adds a loopback hop (and possibly retries) on top of
// one replica's end-to-end latency.
var latencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Metrics is the router's /metrics families: handles registered on
// the embedded registry, which renders them (WriteText, Handler).
type Metrics struct {
	*obs.Registry

	// ReplicaRequests counts attempts per {replica, code}: code is the
	// replica's HTTP status, or "error" for transport failures and
	// "corrupt" for responses that failed validation.
	ReplicaRequests *obs.CounterVec
	// Retries counts attempts after a request's first; Hedges counts
	// second concurrent attempts launched because the first exceeded
	// the hedge delay.
	Retries, Hedges *obs.Counter
	// HedgesSkipped counts hedges vetoed because the remaining deadline
	// budget could not cover HedgeDelay + ExpectedServiceTime;
	// DeadlineExhausted counts requests that ran out of deadline before
	// any replica produced a usable response (504s).
	HedgesSkipped, DeadlineExhausted *obs.Counter
	// Latency is the client-visible router latency in seconds.
	Latency *obs.Histogram
}

// NewMetrics creates an empty metric set.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{Registry: r}
	r.BuildInfo("router_build_info")
	m.ReplicaRequests = r.CounterVec("router_replica_requests_total", "replica", "code")
	m.Retries = r.Counter("router_retries_total")
	m.Hedges = r.Counter("router_hedges_total")
	m.HedgesSkipped = r.Counter("router_hedges_skipped_total")
	m.DeadlineExhausted = r.Counter("router_deadline_exhausted_total")
	m.Latency = r.Histogram("router_request_latency_seconds", latencyBounds...)
	return m
}

// collectReplicas emits the pool's per-replica gauges at scrape time.
func collectReplicas(e *obs.Emitter, pool Pool) {
	for _, rep := range pool.Snapshot() {
		var ready uint64
		if rep.Ready {
			ready = 1
		}
		e.Int("router_replica_ready", ready, "replica", rep.Name)
		e.Int("router_replica_restarts_total", rep.Restarts, "replica", rep.Name)
		e.Int("router_replica_queue_depth", uint64(rep.Load.QueueDepth), "replica", rep.Name)
		e.Int("router_replica_inflight", uint64(rep.Load.Inflight), "replica", rep.Name)
	}
}
