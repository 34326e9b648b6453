// Package obs is the observability layer for the serving and
// inference stack: request-scoped trace IDs, lightweight spans
// covering the serving pipeline (admission → queue wait → batch
// assembly → forward → encode) and the forward pass's internal stages
// (conv, PrimaryCaps, prediction vectors, each dynamic-routing
// iteration), a ring buffer of completed request traces exportable as
// Chrome trace-event JSON (Perfetto-loadable, like the simulator's
// co-sim timelines in internal/trace), and runtime/metrics-backed
// process gauges.
//
// It also owns the /metrics text exposition format end to end: a
// Registry of counters, counter vectors, scrape-time gauges,
// fixed-bucket histograms and collectors is the one writer (serve and
// cluster hold structs of its handles), and ParsePromText the one
// reader (the router's fleet merge, the load generator's stage
// decomposition, the example client and the tests all go through it).
//
// The paper's whole argument rests on knowing where time goes — its
// Figure 3/4 characterization attributes ≈74.6% of CapsNet inference
// to the routing procedure before proposing the PIM offload. This
// package gives the production Go stack the same visibility: a served
// request renders as a Gantt chart whose routing-iteration spans can
// be compared directly against the paper's breakdown.
//
// Design constraints:
//
//   - Standard library only.
//   - Near-zero overhead when disabled: an unsampled request carries a
//     nil *Trace, and every Trace method is nil-receiver safe, so the
//     hot path pays one pointer check per span site.
//   - Deterministic under test: one Clock (Now + NewTimer; Wall in
//     production, ManualClock in tests) is where serve, cluster and
//     this package read time and arm timers; the trace-ID source and
//     the sampling decision (a counter, not a PRNG) are injectable.
//   - internal/capsnet never imports this package; it exposes a
//     StageTimer hook interface that StageRecorder satisfies
//     structurally.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"time"
)

// Wire headers carrying trace identity across process boundaries.
// X-Trace-Id names the whole request story; X-Parent-Span names the
// upstream span an attempt's downstream spans hang under — the router
// mints a fresh span ID per attempt (retries and hedges included), so
// each replica's stage spans attribute to exactly one attempt.
const (
	TraceIDHeader    = "X-Trace-Id"
	ParentSpanHeader = "X-Parent-Span"
)

// Span is one timed operation inside a request or batch: a stage of
// the serving pipeline or of the forward pass.
type Span struct {
	// Name is the stage name ("queue_wait", "conv",
	// "routing_iteration", ...). Serving-pipeline names live in
	// internal/serve; forward-pass names are capsnet's Stage*
	// constants.
	Name string
	// Iter is the dynamic-routing iteration index, or -1 when the
	// stage is not per-iteration.
	Iter int
	// Start and End bound the stage.
	Start, End time.Time
	// ID is the span's own identity (16 hex chars), set only for spans
	// that downstream spans reference as a parent — the router's
	// per-attempt spans. Empty for plain stage spans.
	ID string
	// Parent is the span ID this span hangs under, when known.
	Parent string
	// Tags annotate the span (attempt="2", hedge="true", replica="r1",
	// ...). Nil for untagged spans, so the common case allocates
	// nothing.
	Tags map[string]string
}

// Trace collects the spans of one request (or, transiently, of one
// micro-batch whose spans are then copied into each rider's request
// trace). All methods are safe for concurrent use and safe on a nil
// receiver, so unsampled requests cost one nil check per span site.
type Trace struct {
	// ID is the request's trace ID (16 lowercase hex chars), the same
	// value returned in the X-Trace-Id response header and stamped on
	// the request's log lines.
	ID string
	// Start is when the request was admitted.
	Start time.Time

	mu sync.Mutex
	//pimcaps:guardedby mu
	end time.Time
	//pimcaps:guardedby mu
	parent string
	//pimcaps:guardedby mu
	spans []Span
	// sampled marks traces the counter sampler chose for the
	// completed-trace ring; a flight-recorder-armed server records
	// every request live but only ring-retains sampled ones. It is
	// deliberately NOT guardedby mu: written once before the trace is
	// shared, read lock-free afterwards.
	sampled bool
}

// Add records one completed span. No-op on a nil receiver.
func (t *Trace) Add(name string, iter int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Iter: iter, Start: start, End: end})
	t.mu.Unlock()
}

// AddSpan records one completed span with full identity (ID, parent,
// tags) — the form the router's per-attempt spans use. No-op on a nil
// receiver.
func (t *Trace) AddSpan(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// SetParent records the upstream span ID this trace's spans hang
// under (the X-Parent-Span request header). No-op on a nil receiver.
func (t *Trace) SetParent(spanID string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.parent = spanID
	t.mu.Unlock()
}

// Parent returns the upstream span ID set by SetParent ("" if none or
// on a nil receiver).
func (t *Trace) Parent() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.parent
}

// Sampled reports whether the counter sampler chose this trace for
// the completed-trace ring (false on a nil receiver).
func (t *Trace) Sampled() bool {
	if t == nil {
		return false
	}
	return t.sampled
}

// AddSpans bulk-copies spans (a batch trace's stage spans) into t.
// No-op on a nil receiver.
func (t *Trace) AddSpans(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in insertion order.
// Nil on a nil receiver.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// setEnd stamps the request's completion time.
func (t *Trace) setEnd(end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.end = end
	t.mu.Unlock()
}

// EndTime returns the completion stamp set by Tracer.Finish (zero
// until then, or on a nil receiver).
func (t *Trace) EndTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.end
}

// NewID returns a fresh 64-bit trace ID as 16 lowercase hex chars,
// drawn from crypto/rand (falling back to a process-local counter if
// the system entropy source fails, which crypto/rand.Read never does
// on supported platforms).
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], fallbackID.next())
	}
	return hex.EncodeToString(b[:])
}

// fallbackID is the entropy-failure counter behind NewID.
var fallbackID idCounter

type idCounter struct {
	mu sync.Mutex
	//pimcaps:guardedby mu
	n uint64
}

func (c *idCounter) next() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}
