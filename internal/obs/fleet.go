package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"time"

	"pimcapsnet/internal/trace"
)

// WireSpan is one span in the cross-process fragment format:
// wall-clock timestamps in microseconds since the Unix epoch, so
// fragments from different processes align on one timeline without a
// clock-sync protocol (both sides already stamp spans with time.Now).
type WireSpan struct {
	Name    string            `json:"name"`
	Iter    int               `json:"iter"`
	StartUS int64             `json:"start_us"`
	EndUS   int64             `json:"end_us"`
	SpanID  string            `json:"span_id,omitempty"`
	Parent  string            `json:"parent_span,omitempty"`
	Tags    map[string]string `json:"tags,omitempty"`
}

// TraceFragment is one process's share of a distributed trace: the
// spans a single local Trace recorded for a trace ID, plus the
// identity linking it upward (the X-Parent-Span the request arrived
// with). The fleet merger pulls one fragment list per process and
// joins them on span identity.
type TraceFragment struct {
	TraceID string `json:"trace_id"`
	// Process names the originating process track ("router",
	// "replica-0"). Replicas leave it empty — only the router knows
	// fleet-level names — and the merger fills it in.
	Process string     `json:"process,omitempty"`
	Parent  string     `json:"parent_span,omitempty"`
	Spans   []WireSpan `json:"spans"`
}

// FragmentDoc is the ?format=spans response body: every local trace
// matching the requested ID, as fragments.
type FragmentDoc struct {
	Fragments []TraceFragment `json:"fragments"`
}

// unixMicro converts a wall-clock stamp to fragment time.
func unixMicro(t time.Time) int64 { return t.UnixNano() / 1e3 }

// wireSpans converts a local trace's spans to the wire form.
func wireSpans(t *Trace) []WireSpan {
	spans := t.Spans()
	out := make([]WireSpan, 0, len(spans))
	for _, s := range spans {
		out = append(out, WireSpan{
			Name: s.Name, Iter: s.Iter,
			StartUS: unixMicro(s.Start), EndUS: unixMicro(s.End),
			SpanID: s.ID, Parent: s.Parent, Tags: s.Tags,
		})
	}
	return out
}

// FragmentFromTrace renders one local trace as a fragment.
func FragmentFromTrace(t *Trace) TraceFragment {
	return TraceFragment{TraceID: t.ID, Parent: t.Parent(), Spans: wireSpans(t)}
}

// WriteFragments emits the fragments of every trace in ts as the
// ?format=spans JSON document.
func WriteFragments(w io.Writer, ts []*Trace) error {
	doc := FragmentDoc{Fragments: make([]TraceFragment, 0, len(ts))}
	for _, t := range ts {
		if t != nil {
			doc.Fragments = append(doc.Fragments, FragmentFromTrace(t))
		}
	}
	return json.NewEncoder(w).Encode(doc)
}

// MergeFragments joins per-process fragments into one Chrome trace:
// each distinct process gets its own pid and a process_name metadata
// track, each fragment within a process gets its own tid (one row per
// attempt), and all timestamps are rebased onto the earliest span
// start across the whole set — the wall-clock alignment that makes a
// router attempt span visually contain its replica's stage spans.
//
// Span identity survives as args (span_id, parent_span), and tags on
// a parent span (attempt, hedge, replica) are copied onto the spans
// of every fragment whose Parent references it, so a replica-side
// timeline is attributable to its attempt without chasing IDs.
func MergeFragments(frags []TraceFragment) *trace.Log {
	log := &trace.Log{}
	if len(frags) == 0 {
		return log
	}

	// Tag index: span ID → tags, from every identified span.
	tagsByID := make(map[string]map[string]string)
	for _, f := range frags {
		for _, s := range f.Spans {
			if s.SpanID != "" && len(s.Tags) > 0 {
				tagsByID[s.SpanID] = s.Tags
			}
		}
	}

	// Epoch: earliest span start anywhere.
	var epoch int64
	first := true
	for _, f := range frags {
		for _, s := range f.Spans {
			if first || s.StartUS < epoch {
				epoch, first = s.StartUS, false
			}
		}
	}

	// Stable pid assignment: fragments arrive router-first, replicas
	// in fleet order; keep that order rather than sorting names so
	// "router" stays pid 1.
	pidByProcess := make(map[string]int)
	nextPID := 1
	tidByProcess := make(map[string]int)
	for _, f := range frags {
		pid, ok := pidByProcess[f.Process]
		if !ok {
			pid = nextPID
			nextPID++
			pidByProcess[f.Process] = pid
			log.ProcessName(pid, f.Process)
		}
		tidByProcess[f.Process]++
		tid := tidByProcess[f.Process]

		inherited := tagsByID[f.Parent]
		for _, s := range f.Spans {
			args := map[string]string{"trace_id": f.TraceID}
			if s.Iter >= 0 {
				args["iteration"] = strconv.Itoa(s.Iter)
			}
			if s.SpanID != "" {
				args["span_id"] = s.SpanID
			}
			parent := s.Parent
			if parent == "" {
				parent = f.Parent
			}
			if parent != "" {
				args["parent_span"] = parent
			}
			for k, v := range s.Tags {
				args[k] = v
			}
			// Attribution inheritance: a replica fragment's spans carry
			// the attempt/hedge/replica tags of the router span that
			// launched them.
			for k, v := range inherited {
				if _, own := args[k]; !own {
					args[k] = v
				}
			}
			// Differences in float64, not int64: the timestamps come
			// off the wire, and an int64 difference of two far-apart
			// ones wraps, placing a span before the epoch or giving an
			// end-before-start span a huge duration. Below 2^53 µs (285
			// years) both are exact.
			dur := max(float64(s.EndUS)-float64(s.StartUS), 0)
			log.Complete(s.Name, "fleet", pid, tid, float64(s.StartUS)-float64(epoch), dur, args)
		}
	}
	return log
}

// SortFragmentSpans orders each fragment's spans by start time —
// fragment producers append spans in completion order, which is not
// timeline order for nested stages.
func SortFragmentSpans(frags []TraceFragment) {
	for i := range frags {
		sort.SliceStable(frags[i].Spans, func(a, b int) bool {
			return frags[i].Spans[a].StartUS < frags[i].Spans[b].StartUS
		})
	}
}
