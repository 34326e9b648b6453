package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Flight-recorder pin reasons. A request is pinned when any trigger
// fires; the entry records every reason that applied so a postmortem
// sees the full failure signature.
const (
	// FlightReasonStatus5xx pins requests that ended in any 5xx
	// (including 504 deadline expiry).
	FlightReasonStatus5xx = "status_5xx"
	// FlightReasonSlow pins requests whose end-to-end latency exceeded
	// the configured slow threshold.
	FlightReasonSlow = "slow"
	// FlightReasonBrownout pins requests served under brownout level
	// >= 1 — degraded fidelity worth a postmortem trail.
	FlightReasonBrownout = "brownout"
	// FlightReasonBatchAborted pins requests that rode a cooperatively
	// aborted batch.
	FlightReasonBatchAborted = "batch_aborted"
	// FlightReasonDeadlineExhausted pins router requests whose
	// end-to-end deadline ran out before any replica answered.
	FlightReasonDeadlineExhausted = "deadline_exhausted"
)

// FlightConfig tunes a FlightRecorder.
type FlightConfig struct {
	// Capacity is how many pinned requests are retained (default 64).
	// Only pinned requests occupy slots: a million fast 200s cost
	// nothing, so the recorder still holds the bad requests from hours
	// ago when the pager fires.
	Capacity int
	// SlowThreshold, when positive, pins any request slower than this
	// end-to-end regardless of status.
	SlowThreshold time.Duration
}

// DefaultFlightBuffer is the default pinned-request capacity.
const DefaultFlightBuffer = 64

// FlightEntry is one pinned request: its full span trace plus the
// verdict that pinned it.
type FlightEntry struct {
	Trace   *Trace
	Status  int
	Latency time.Duration
	// Reasons lists every trigger that fired, sorted.
	Reasons []string
	// BrownoutLevel is the brownout level the request was served
	// under (0 = full fidelity).
	BrownoutLevel int
}

// FlightRecorder is the tail-sampling retention policy: unlike the
// counter-sampled ring (a uniform sample of all traffic), it pins the
// complete span set of exactly the requests postmortems need — 5xx,
// aborted batches, brownout-degraded, or slow — and drops everything
// else. Safe for concurrent use.
type FlightRecorder struct {
	cfg FlightConfig

	mu sync.Mutex
	//pimcaps:guardedby mu
	ring []FlightEntry
	//pimcaps:guardedby mu
	next int
	//pimcaps:guardedby mu
	pinned uint64 // entries ever pinned (including since-evicted)
	//pimcaps:guardedby mu
	offered uint64 // requests ever offered (pinned or not)
}

// NewFlightRecorder builds a recorder from cfg.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultFlightBuffer
	}
	return &FlightRecorder{cfg: cfg, ring: make([]FlightEntry, 0, cfg.Capacity)}
}

// Note offers one finished request to the recorder. The built-in
// triggers (status >= 500, latency > SlowThreshold, brownoutLevel >=
// 1) are evaluated here; extraReasons carries caller-known triggers
// (batch aborted, deadline exhausted). Returns whether the request
// was pinned. Nil traces are never pinned — there is nothing to
// retain.
func (f *FlightRecorder) Note(t *Trace, status int, latency time.Duration, brownoutLevel int, extraReasons ...string) bool {
	if f == nil || t == nil {
		return false
	}
	reasons := append([]string(nil), extraReasons...)
	if status >= 500 {
		reasons = append(reasons, FlightReasonStatus5xx)
	}
	if f.cfg.SlowThreshold > 0 && latency > f.cfg.SlowThreshold {
		reasons = append(reasons, FlightReasonSlow)
	}
	if brownoutLevel >= 1 {
		reasons = append(reasons, FlightReasonBrownout)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.offered++
	if len(reasons) == 0 {
		return false
	}
	sort.Strings(reasons)
	entry := FlightEntry{
		Trace: t, Status: status, Latency: latency,
		Reasons: reasons, BrownoutLevel: brownoutLevel,
	}
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, entry)
	} else {
		f.ring[f.next] = entry
		f.next = (f.next + 1) % len(f.ring)
	}
	f.pinned++
	return true
}

// Entries returns the pinned requests, oldest first.
func (f *FlightRecorder) Entries() []FlightEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEntry, 0, len(f.ring))
	for i := 0; i < len(f.ring); i++ {
		out = append(out, f.ring[(f.next+i)%len(f.ring)])
	}
	return out
}

// Pinned returns how many requests have ever been pinned (including
// entries the ring has since evicted).
func (f *FlightRecorder) Pinned() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pinned
}

// flightWire is the /debug/requests/flight JSON shape.
type flightWire struct {
	TraceID        string     `json:"trace_id"`
	Status         int        `json:"status"`
	LatencySeconds float64    `json:"latency_seconds"`
	Reasons        []string   `json:"reasons"`
	BrownoutLevel  int        `json:"brownout_level,omitempty"`
	ParentSpan     string     `json:"parent_span,omitempty"`
	Spans          []WireSpan `json:"spans"`
}

// flightDoc wraps the entry list with totals, so a reader can tell a
// quiet recorder from a wrapped one.
type flightDoc struct {
	Pinned   uint64       `json:"pinned_total"`
	Retained int          `json:"retained"`
	Capacity int          `json:"capacity"`
	Entries  []flightWire `json:"entries"`
}

// WriteJSON emits the recorder's pinned requests as JSON, oldest
// first, each with its complete span set.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	entries := f.Entries()
	doc := flightDoc{
		Pinned: f.Pinned(), Retained: len(entries), Capacity: f.cfg.Capacity,
		Entries: make([]flightWire, 0, len(entries)),
	}
	for _, e := range entries {
		fw := flightWire{
			Status:         e.Status,
			LatencySeconds: e.Latency.Seconds(),
			Reasons:        e.Reasons,
			BrownoutLevel:  e.BrownoutLevel,
		}
		if e.Trace != nil {
			fw.TraceID = e.Trace.ID
			fw.ParentSpan = e.Trace.Parent()
			fw.Spans = wireSpans(e.Trace)
		}
		doc.Entries = append(doc.Entries, fw)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Traces returns the pinned traces, oldest first, deduplicated by
// pointer against already — the set union a -trace-out shutdown dump
// merges with the sampled ring.
func (f *FlightRecorder) Traces(already []*Trace) []*Trace {
	seen := make(map[*Trace]bool, len(already))
	for _, t := range already {
		seen[t] = true
	}
	var out []*Trace
	for _, e := range f.Entries() {
		if e.Trace != nil && !seen[e.Trace] {
			seen[e.Trace] = true
			out = append(out, e.Trace)
		}
	}
	return out
}
