package obs

import (
	"context"
	"math"
	"sync"
	"time"
)

// TracerConfig tunes a Tracer. The zero value is a disabled tracer
// with default buffering — useful because trace IDs, the clock, and
// the ring plumbing all stay functional with sampling off.
type TracerConfig struct {
	// Sample is the fraction of requests whose span timeline is
	// recorded, in [0, 1]. 0 disables span recording entirely (trace
	// IDs are still issued); 1 records every request. Intermediate
	// rates sample deterministically every ⌈1/Sample⌉-th request —
	// counter-based, not random, so tests and replays are exact.
	Sample float64
	// BufferSize is the completed-trace ring capacity (default 256).
	// The ring holds the last BufferSize finished requests for
	// /debug/requests/trace.
	BufferSize int
	// Clock stamps the epoch (default Wall).
	Clock Clock
	// IDSource overrides trace-ID generation (default NewID); tests
	// inject a counter for stable IDs.
	IDSource func() string
}

// DefaultTraceBuffer is the default completed-trace ring capacity.
const DefaultTraceBuffer = 256

// Tracer issues trace IDs, decides which requests get full span
// recording, and retains completed traces in a ring buffer. Safe for
// concurrent use.
type Tracer struct {
	every uint64 // sample every Nth request; 0 = never
	newID func() string
	epoch time.Time

	mu sync.Mutex
	//pimcaps:guardedby mu
	seq uint64
	//pimcaps:guardedby mu
	ring []*Trace // ring[next] is the oldest slot once full
	//pimcaps:guardedby mu
	next int
	//pimcaps:guardedby mu
	total uint64 // completed traces ever pushed
}

// NewTracer builds a tracer from cfg.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Clock == nil {
		cfg.Clock = Wall
	}
	if cfg.IDSource == nil {
		cfg.IDSource = NewID
	}
	if cfg.BufferSize <= 0 {
		cfg.BufferSize = DefaultTraceBuffer
	}
	var every uint64
	if cfg.Sample > 0 {
		if cfg.Sample >= 1 {
			every = 1
		} else {
			every = uint64(math.Ceil(1 / cfg.Sample))
		}
	}
	return &Tracer{
		every: every,
		newID: cfg.IDSource,
		epoch: cfg.Clock.Now(),
		ring:  make([]*Trace, 0, cfg.BufferSize),
	}
}

// Enabled reports whether any request can be sampled.
func (tr *Tracer) Enabled() bool { return tr.every > 0 }

// Epoch is the tracer's construction time — the zero point of the
// Chrome trace timestamps it exports.
func (tr *Tracer) Epoch() time.Time { return tr.epoch }

// NewID issues a trace ID. Every request gets one (for X-Trace-Id and
// log correlation) regardless of sampling.
func (tr *Tracer) NewID() string { return tr.newID() }

// StartRequest makes the sampling decision for one request: it
// returns a live *Trace for sampled requests and nil otherwise. The
// nil trace is the fast path — every downstream span site degrades to
// a pointer check.
func (tr *Tracer) StartRequest(id string, start time.Time) *Trace {
	if !tr.decide() {
		return nil
	}
	return &Trace{ID: id, Start: start, sampled: true}
}

// StartAlways returns a live trace for every request — the mode a
// flight-recorder-armed server runs in, where the spans of a request
// that turns out bad must exist even if the counter sampler skipped
// it. The sampling decision still runs and is recorded on the trace:
// Finish ring-retains only sampled traces, so the ring's contents are
// identical to StartRequest's.
func (tr *Tracer) StartAlways(id string, start time.Time) *Trace {
	return &Trace{ID: id, Start: start, sampled: tr.decide()}
}

// decide makes one counter-sampling decision.
func (tr *Tracer) decide() bool {
	if tr.every == 0 {
		return false
	}
	tr.mu.Lock()
	tr.seq++
	sampled := tr.seq%tr.every == 0
	tr.mu.Unlock()
	return sampled
}

// Finish stamps the request's end time and retains the trace in the
// ring, evicting the oldest entry once full. No-op for nil traces;
// unsampled live traces (StartAlways under a skipping counter) get
// their end stamp but stay out of the ring — the flight recorder is
// their only route to retention.
func (tr *Tracer) Finish(t *Trace, end time.Time) {
	if t == nil {
		return
	}
	t.setEnd(end)
	if !t.sampled {
		return
	}
	tr.mu.Lock()
	if len(tr.ring) < cap(tr.ring) {
		tr.ring = append(tr.ring, t)
	} else {
		tr.ring[tr.next] = t
		tr.next = (tr.next + 1) % len(tr.ring)
	}
	tr.total++
	tr.mu.Unlock()
}

// Completed returns how many traces have finished since start-up
// (including ones the ring has since evicted).
func (tr *Tracer) Completed() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.total
}

// Last returns up to n most recently completed traces, oldest first.
func (tr *Tracer) Last(n int) []*Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n <= 0 || len(tr.ring) == 0 {
		return nil
	}
	if n > len(tr.ring) {
		n = len(tr.ring)
	}
	out := make([]*Trace, 0, n)
	// Entries in ring order starting at next are oldest → newest.
	for i := 0; i < len(tr.ring); i++ {
		out = append(out, tr.ring[(tr.next+i)%len(tr.ring)])
	}
	return out[len(out)-n:]
}

// Find returns the ring-retained traces whose ID equals id, oldest
// first. Retries can land several traces with the same ID in one
// process (each attempt is its own request to a replica), so this
// returns all of them.
func (tr *Tracer) Find(id string) []*Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []*Trace
	for i := 0; i < len(tr.ring); i++ {
		t := tr.ring[(tr.next+i)%len(tr.ring)]
		if t != nil && t.ID == id {
			out = append(out, t)
		}
	}
	return out
}

// ctxKey keys the request trace info in a context.
type ctxKey struct{}

// reqInfo is what WithTrace stores: the ID travels even when the
// trace itself is unsampled (nil).
type reqInfo struct {
	id    string
	trace *Trace
}

// WithTrace returns ctx carrying the request's trace ID and (possibly
// nil) sampled trace.
func WithTrace(ctx context.Context, id string, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, reqInfo{id: id, trace: t})
}

// TraceIDFrom returns the trace ID stored by WithTrace ("" if none).
func TraceIDFrom(ctx context.Context) string {
	if info, ok := ctx.Value(ctxKey{}).(reqInfo); ok {
		return info.id
	}
	return ""
}

// TraceFrom returns the sampled trace stored by WithTrace (nil if the
// request is unsampled or the context carries no trace).
func TraceFrom(ctx context.Context) *Trace {
	if info, ok := ctx.Value(ctxKey{}).(reqInfo); ok {
		return info.trace
	}
	return nil
}
