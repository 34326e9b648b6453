package main

import (
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/trace"
)

// span is one recorded interval. Spans of one op (or, inside the
// program, one forward pass) share op; parent is the index of the span
// that caused this one, -1 for a root.
type span struct {
	name       string
	parent     int
	op         int // client op id, or forward-pass (batch) id for program spans
	iter       int // routing iteration, -1 when not per-iteration
	track      int // client index for client spans, programTrack for program spans
	start, end time.Duration
	sent       time.Duration // client spans: when the op was actually sent
}

const programTrack = -1

// spanRecorder keeps spans in memory for the whole run; nothing is
// written until the benchmark ends.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) now() time.Duration { return time.Since(r.epoch) }

// add stores s and returns its index, the id children name as parent.
func (r *spanRecorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

func (r *spanRecorder) finish(id int, end time.Duration) {
	r.mu.Lock()
	r.spans[id].end = end
	r.mu.Unlock()
}

func (r *spanRecorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// stageTimer is the benchmark-owned capsnet.StageTimer: it turns the
// stage boundaries of Network.Stages into spans under one forward span
// per pass. With synthetic set (serve workloads, where the benchmark
// cannot wrap ForwardBatch) the forward span opens at the first stage
// and closes after the last; otherwise the caller brackets the call
// with beginForward/endForward.
type stageTimer struct {
	rec       *spanRecorder
	synthetic bool

	mu        sync.Mutex
	batches   int
	partB     int
	forward   int // open forward span, -1 when none
	forwardOp int // its op id, copied onto the stage spans under it
	iteration int // open routing_iteration span, -1 when none
}

func newStageTimer(rec *spanRecorder, synthetic bool) *stageTimer {
	return &stageTimer{rec: rec, synthetic: synthetic, forward: -1, iteration: -1}
}

func (t *stageTimer) beginForward(op, parent int) {
	t.mu.Lock()
	if t.synthetic {
		op = t.batches // no caller-side op id: number the passes
	}
	t.batches++
	t.forwardOp = op
	t.forward = t.rec.add(span{name: "forward", parent: parent, op: op, iter: -1, track: programTrack, start: t.rec.now()})
	t.mu.Unlock()
}

func (t *stageTimer) endForward() {
	t.mu.Lock()
	if t.forward >= 0 {
		t.rec.finish(t.forward, t.rec.now())
		t.forward = -1
	}
	t.mu.Unlock()
}

// BeginStage implements capsnet.StageTimer.
func (t *stageTimer) BeginStage(stage string, iteration int) func() {
	if t.synthetic && stage == capsnet.StageConv {
		t.endForward() // an aborted pass never reached its last stage
		t.beginForward(-1, -1)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if stage == capsnet.StageRoutingPartition {
		// Zero-duration marker: iteration carries the chosen Partition.
		if capsnet.Partition(iteration) == capsnet.PartitionB {
			t.partB++
		}
		return nil
	}
	parent := t.forward
	switch stage {
	case capsnet.StageRoutingSoftmax, capsnet.StageRoutingAggregate, capsnet.StageRoutingAgreement:
		parent = t.iteration
	}
	id := t.rec.add(span{name: stage, parent: parent, op: t.forwardOp, iter: iteration, track: programTrack, start: t.rec.now()})
	if stage == capsnet.StageRoutingIteration {
		t.iteration = id
	}
	return func() {
		t.rec.finish(id, t.rec.now())
		if stage == capsnet.StageRoutingIteration {
			t.mu.Lock()
			t.iteration = -1
			t.mu.Unlock()
		}
		if t.synthetic && stage == capsnet.StageLengths {
			t.endForward()
		}
	}
}

// teeTimer forwards every stage boundary to both timers, so the
// recorder serve.New installed keeps feeding the server's own
// histograms while the benchmark records spans.
type teeTimer struct{ outer, inner capsnet.StageTimer }

func (t teeTimer) BeginStage(stage string, iteration int) func() {
	endOuter := t.outer.BeginStage(stage, iteration)
	endInner := t.inner.BeginStage(stage, iteration)
	return func() {
		if endInner != nil {
			endInner()
		}
		if endOuter != nil {
			endOuter()
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, reach := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < reach {
				lo = reach
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// sumByName totals duration and count per span name.
func sumByName(spans []span) (dur map[string]time.Duration, count map[string]int) {
	dur, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		dur[s.name] += s.end - s.start
		count[s.name]++
	}
	return dur, count
}

// writeChromeTrace writes spans as Chrome trace-event JSON: process 1
// holds one track per client, process 2 the program's forward and
// stage spans.
func writeChromeTrace(path string, spans []span) error {
	var log trace.Log
	log.ProcessName(1, "bench client")
	log.ProcessName(2, "program (Network.Stages)")
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for i, st := range selfTimes(spans) {
		s := spans[i]
		args := map[string]string{
			"id":      strconv.Itoa(i),
			"parent":  strconv.Itoa(s.parent),
			"op":      strconv.Itoa(s.op),
			"self_us": strconv.FormatFloat(us(st), 'f', 1, 64),
		}
		pid, tid, cat := 2, 0, "program"
		if s.track != programTrack {
			pid, tid, cat = 1, s.track, "client"
			args["sent_us"] = strconv.FormatFloat(us(s.sent), 'f', 1, 64)
		}
		if s.iter >= 0 {
			args["iteration"] = strconv.Itoa(s.iter)
		}
		log.Complete(s.name, cat, pid, tid, us(s.start), us(s.end-s.start), args)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := log.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
