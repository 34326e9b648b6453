// Package serve is the batching inference server for the CapsNet
// library: it exposes a trained capsnet.Network over HTTP and routes
// requests through a dynamic micro-batcher so squash/softmax/routing
// work is shared across concurrent requests, exactly the property the
// PIM-CapsNet paper exploits with its batch-shared Alg. 1 — the
// serving layer is the software analogue of the paper's hardware
// scheduling.
//
// The subsystem mirrors the two-stage host/HMC pipeline modeled in
// internal/pipeline, one batch in each stage: request decode,
// validation and batch collection (stage one, net/http handler
// goroutines feeding the batcher's dispatcher) overlap the batched
// Network.Forward of the previous batch (stage two, executed by a
// dedicated runner goroutine). A collected batch launches the moment
// the runner is idle, so steady-state throughput is set by the slower
// of the two sides, as in pipeline.TwoStage. Inside a batch, Forward splits every stage over
// the Network's GOMAXPROCS chunk workers.
//
// Everything is standard library only.
package serve

import (
	"fmt"
	"log/slog"
	"time"

	"pimcapsnet/internal/obs"
)

// Config tunes the server and its micro-batcher. The zero value is
// usable: every field falls back to the documented default.
type Config struct {
	// MaxBatch is the micro-batch size cap: a batch launches as soon
	// as this many requests are queued. Default 8.
	MaxBatch int
	// MaxDelay is how long an idle runner waits for a partial batch to
	// fill before launching it. While the runner is busy the batch keeps
	// filling regardless. Default 0: a batch launches as soon as the
	// runner is idle.
	MaxDelay time.Duration
	// QueueSize bounds the admission queue; requests arriving while it
	// is full are rejected with 429 + Retry-After (backpressure). At
	// most the running batch + MaxBatch (the batch under collection) +
	// QueueSize requests are admitted at once. Default 64.
	QueueSize int
	// RequestTimeout is the per-request deadline covering queueing and
	// inference; expiry yields 504. Default 5s.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: how long Close waits for
	// in-flight batches to finish. Default 10s.
	DrainTimeout time.Duration
	// BatchDeadline is the watchdog bound on one batch's inference: a
	// batch still running after this long is failed with
	// ErrBatchTimeout (HTTP 500) so a stalled forward pass cannot
	// wedge the queue behind it. Default 30s.
	BatchDeadline time.Duration
	// TraceSample is the fraction of requests whose full span timeline
	// (admission → queue wait → batch assembly → forward-pass stages →
	// encode) is recorded and retained for /debug/requests/trace, in
	// [0, 1]. Sampling is deterministic (every ⌈1/rate⌉-th request).
	// Default 0: no span recording — trace IDs, request logs, and the
	// per-stage histograms all still work, and an unsampled request
	// pays one nil check per span site.
	TraceSample float64
	// TraceBuffer is how many completed request traces the ring buffer
	// behind /debug/requests/trace retains. Default 256.
	TraceBuffer int
	// FlightBuffer, when positive, arms the tail-sampled flight
	// recorder: every request records spans live, and the full span set
	// of requests that end 5xx, ride an aborted batch, run under
	// brownout, or exceed SlowThreshold is pinned (up to FlightBuffer
	// entries) at /debug/requests/flight. 0 (the default) disables the
	// recorder entirely — the hot path then pays nothing beyond the
	// counter sampler.
	FlightBuffer int
	// SlowThreshold, when positive and the flight recorder is armed,
	// pins any request slower than this end-to-end regardless of
	// status. 0 disables the slow trigger.
	SlowThreshold time.Duration
	// Logger, when non-nil, receives one structured log record per
	// classify request (trace ID, status, latency, batch size). Nil
	// disables request logging.
	Logger *slog.Logger
	// Clock is where the server reads time and arms its timers: stage
	// stamps, deadline arithmetic, and the fill, watchdog and abort
	// timers. Nil means obs.Wall; tests pass an obs.ManualClock.
	Clock obs.Clock
	// Brownout configures the adaptive-fidelity overload controller:
	// under sustained queue pressure the server sheds routing
	// iterations (and optionally switches to approximate routing math)
	// instead of collapsing, stepping back up after recovery. The zero
	// value disables it entirely — the forward path is then
	// bit-identical to a server without the controller.
	Brownout BrownoutConfig
	// PreRunHook, when non-nil, is called by the batch runner with
	// the assembled batch images immediately before inference, on the
	// same goroutine the forward pass uses — so a hook that panics or
	// stalls exercises exactly the recovery and watchdog paths.
	// Fault-injection campaigns (internal/fault) install corruption,
	// panic, and stall hooks here; nil (the default) costs nothing.
	PreRunHook func(images [][]float32)
}

// Defaults for the zero Config.
const (
	DefaultMaxBatch       = 8
	DefaultQueueSize      = 64
	DefaultRequestTimeout = 5 * time.Second
	DefaultDrainTimeout   = 10 * time.Second
	DefaultBatchDeadline  = 30 * time.Second
)

// withDefaults returns c with every zero field replaced by its
// default.
func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.QueueSize == 0 {
		c.QueueSize = DefaultQueueSize
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.BatchDeadline == 0 {
		c.BatchDeadline = DefaultBatchDeadline
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = obs.DefaultTraceBuffer
	}
	if c.Brownout.Enabled {
		c.Brownout = c.Brownout.withDefaults()
	}
	if c.Clock == nil {
		c.Clock = obs.Wall
	}
	return c
}

// Validate reports an error for a nonsensical configuration (after
// defaulting).
func (c Config) Validate() error {
	if c.MaxBatch < 1 {
		return fmt.Errorf("serve: MaxBatch %d, need ≥ 1", c.MaxBatch)
	}
	if c.MaxDelay < 0 {
		return fmt.Errorf("serve: negative MaxDelay %v", c.MaxDelay)
	}
	if c.QueueSize < 1 {
		return fmt.Errorf("serve: QueueSize %d, need ≥ 1", c.QueueSize)
	}
	if c.RequestTimeout <= 0 {
		return fmt.Errorf("serve: RequestTimeout %v, need > 0", c.RequestTimeout)
	}
	if c.DrainTimeout <= 0 {
		return fmt.Errorf("serve: DrainTimeout %v, need > 0", c.DrainTimeout)
	}
	if c.BatchDeadline <= 0 {
		return fmt.Errorf("serve: BatchDeadline %v, need > 0", c.BatchDeadline)
	}
	if c.TraceSample < 0 || c.TraceSample > 1 {
		return fmt.Errorf("serve: TraceSample %g, need 0 ≤ rate ≤ 1", c.TraceSample)
	}
	if c.TraceBuffer < 1 {
		return fmt.Errorf("serve: TraceBuffer %d, need ≥ 1", c.TraceBuffer)
	}
	if c.FlightBuffer < 0 {
		return fmt.Errorf("serve: FlightBuffer %d, need ≥ 0", c.FlightBuffer)
	}
	if c.SlowThreshold < 0 {
		return fmt.Errorf("serve: negative SlowThreshold %v", c.SlowThreshold)
	}
	if err := c.Brownout.validate(); err != nil {
		return err
	}
	return nil
}
