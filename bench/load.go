package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opRecord is one call as the generator saw it; times are offsets from
// the start of the window. Closed-loop calls are due when they are
// sent; open-loop calls are due when the schedule says, and their
// latency counts from then, so a stall is charged to every call it
// delays.
type opRecord struct {
	due, sent, done time.Duration
	status          int
}

func (r opRecord) latency() time.Duration  { return r.done - r.due }
func (r opRecord) lateness() time.Duration { return r.sent - r.due }

// window is one measured window in progress: the clock every offset
// is read from, and where client spans go when the pass is traced.
type window struct {
	t     *target
	start time.Time
	rec   *spanRecorder // nil when untraced
	base  time.Duration // the window's start on rec's clock
}

func newWindow(t *target, rec *spanRecorder) *window {
	w := &window{t: t, rec: rec}
	if rec != nil {
		w.base = rec.now()
	}
	w.start = time.Now()
	return w
}

func (w *window) since() time.Duration { return time.Since(w.start) }

// call runs call op, due at the given offset, from the given client,
// under a client span when the pass is traced.
func (w *window) call(ctx context.Context, op, client int, due time.Duration) opRecord {
	r := opRecord{due: due, sent: w.since()}
	parent := -1
	if w.rec != nil {
		parent = w.rec.add(span{name: "op", parent: -1, op: op, iter: -1, track: client, start: w.base + due, sent: w.base + r.sent})
	}
	r.status = w.t.call(ctx, op, parent)
	r.done = w.since()
	if w.rec != nil {
		w.rec.finish(parent, w.base+r.done)
	}
	return r
}

// runClosed drives t with clients callers that each send their next
// call when the previous one returns, until length has passed; it
// returns every call and the time until the last one finished.
func runClosed(ctx context.Context, t *target, clients int, length time.Duration, rec *spanRecorder) ([]opRecord, time.Duration) {
	w := newWindow(t, rec)
	var next atomic.Int64
	perClient := make([][]opRecord, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		// Sized so the measured loop never grows the slice.
		perClient[c] = make([]opRecord, 0, 1<<14)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && w.since() < length {
				op := int(next.Add(1) - 1)
				perClient[c] = append(perClient[c], w.call(ctx, op, c, w.since()))
			}
		}(c)
	}
	wg.Wait()
	elapsed := w.since()
	var all []opRecord
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	return all, elapsed
}

// openLoopTracks is how many client tracks an open-loop trace spreads
// its spans over, so that overlapping calls do not share one.
const openLoopTracks = 64

// runOpen sends call i at offsets[i] seconds whether or not earlier
// calls have returned, and waits for all of them; it returns every
// call and the time until the last one finished.
func runOpen(ctx context.Context, t *target, offsets []float64, rec *spanRecorder) ([]opRecord, time.Duration) {
	w := newWindow(t, rec)
	records := make([]opRecord, len(offsets))
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var wg sync.WaitGroup
	for i, at := range offsets {
		due := time.Duration(at * float64(time.Second))
		if wait := due - w.since(); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			records = records[:i]
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			records[i] = w.call(ctx, i, i%openLoopTracks, due)
		}(i)
	}
	wg.Wait()
	return records, w.since()
}

// pass is one measured window and what was observed around it.
type pass struct {
	ops     []opRecord
	window  time.Duration // first call due → last call done; what throughput is divided by
	selfCPU time.Duration
	// replicaCPU is the subprocesses' CPU over the window.
	replicaCPU time.Duration
	// serve and router are exposition deltas over the window; serveEnd
	// is the closing scrape, for gauges.
	serve, router, serveEnd expo
	mallocs                 uint64
	spans                   []span
	partB                   int // traced offline pass: forward passes sharded on B
}

func replicasCPU(pids []int) time.Duration {
	var total time.Duration
	for _, pid := range pids {
		if d, err := procCPU(pid); err == nil {
			total += d
		}
	}
	return total
}

// runPass measures one window of seconds on t. With traced set it
// installs the benchmark's StageTimer on the in-process network and
// records client spans; the untraced pass leaves the program exactly
// as its users run it.
func runPass(ctx context.Context, t *target, seconds int, seed int64, traced bool) (*pass, error) {
	var rec *spanRecorder
	var timer *stageTimer
	if traced {
		rec = newSpanRecorder()
		if t.network != nil {
			timer = newStageTimer(rec, t.spec.kind != kindOffline)
			saved := t.network.Stages
			if saved == nil {
				t.network.Stages = timer
				t.stages = timer
			} else {
				t.network.Stages = teeTimer{outer: saved, inner: timer}
			}
			defer func() { t.network.Stages, t.stages = saved, nil }()
		}
	}
	serveBefore, err := t.scrapeServe(ctx)
	if err != nil {
		return nil, err
	}
	routerBefore, err := t.scrapeRouter(ctx)
	if err != nil {
		return nil, err
	}
	pids := t.replicaPIDs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	replicaCPU, cpu := replicasCPU(pids), selfCPU()

	p := &pass{}
	if t.spec.rate > 0 {
		p.ops, p.window = runOpen(ctx, t, schedule(t.spec.rate, seconds, seed), rec)
	} else {
		p.ops, p.window = runClosed(ctx, t, t.spec.clients, time.Duration(seconds)*time.Second, rec)
	}

	p.selfCPU, p.replicaCPU = selfCPU()-cpu, replicasCPU(pids)-replicaCPU
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.serveEnd, err = t.scrapeServe(ctx); err != nil {
		return nil, err
	}
	routerEnd, err := t.scrapeRouter(ctx)
	if err != nil {
		return nil, err
	}
	p.serve, p.router = p.serveEnd.minus(serveBefore), routerEnd.minus(routerBefore)
	if rec != nil {
		p.spans = rec.snapshot()
	}
	if timer != nil {
		p.partB = timer.partB
	}
	return p, nil
}
