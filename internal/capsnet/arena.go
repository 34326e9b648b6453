package capsnet

import (
	"runtime"
	"sync"

	"pimcapsnet/internal/tensor"
)

// This file implements the allocation-free forward path: a per-Network
// pool of scratch arenas sized once from the layer shapes, acquired
// per Forward/ForwardBatch call, and reused across routing iterations
// and across calls. In steady state (every Output released, batch
// sizes at or below the high-water mark) a forward pass performs zero
// heap allocations: all tensors are views Reuse-bound over one arena
// slab, the chunk kernels are closures bound once at scratch creation,
// and chunk dispatch rides persistent worker goroutines fed through a
// channel of pre-allocated job slots. This is the software analogue of
// the on-chip buffer management the paper's related accelerators
// (CapsAcc, DESCNet) use to attack the same data-reuse problem.

// panicCell captures the first panic raised by a set of chunk workers
// so the dispatching goroutine can re-raise it after all chunks
// complete. Unlike panicBox it is resettable, so one cell embedded in
// a scratch serves every dispatch without allocating.
type panicCell struct {
	mu sync.Mutex
	//pimcaps:guardedby mu
	val any
	//pimcaps:guardedby mu
	set bool
}

func (c *panicCell) reset() {
	c.mu.Lock()
	c.val, c.set = nil, false
	c.mu.Unlock()
}

func (c *panicCell) capture(p any) {
	c.mu.Lock()
	if !c.set {
		c.val, c.set = p, true
	}
	c.mu.Unlock()
}

// repanic re-raises the captured panic, if any. Call only after every
// chunk's done signal has been received (the channel receives provide
// the happens-before edge for reading val without the lock).
func (c *panicCell) repanic() {
	//lint:ignore pimcaps/guardedby the per-chunk done-channel receives happen-before this read, so the lock is unnecessary here
	set, val := c.set, c.val
	if set {
		panic(val)
	}
}

// chunkJob is one contiguous shard of a chunk dispatch. Jobs live in a
// pre-allocated per-scratch array; only pointers to them travel
// through the worker pool's channel, so dispatch allocates nothing.
type chunkJob struct {
	fn             func(worker, lo, hi int)
	worker, lo, hi int
	done           chan<- struct{}
	box            *panicCell
}

// run executes the job, captures any panic into the job's cell, and
// always signals done (the send is to a buffered channel sized for
// the full worker count, so it never blocks).
func (j *chunkJob) run() {
	defer func() {
		if p := recover(); p != nil {
			j.box.capture(p)
		}
		j.done <- struct{}{}
	}()
	j.fn(j.worker, j.lo, j.hi)
}

// workerPool is a Network's set of persistent chunk workers. Spawning
// goroutines per dispatch would allocate on every routing iteration;
// instead workers are launched once and fed jobs through a channel.
// Concurrent forward passes share the pool — total parallelism stays
// bounded by the worker count, which is the point.
type workerPool struct {
	jobs chan *chunkJob
	wg   sync.WaitGroup
}

func (p *workerPool) work() {
	defer p.wg.Done()
	for j := range p.jobs {
		j.run()
	}
}

// ensurePool makes sure the Network's pool exists and has at least
// extra persistent workers (the dispatching goroutine itself runs
// chunk 0 inline, so extra = workers-1). Called at scratch creation,
// never on the hot path. The workers live until Close.
func (n *Network) ensurePool(extra int) {
	n.poolMu.Lock()
	defer n.poolMu.Unlock()
	if n.pool == nil {
		// The buffer lets a dispatcher hand over all its chunks and start
		// on its own; when it is full the dispatcher only waits earlier
		// for workers it is about to wait for anyway.
		n.pool = &workerPool{jobs: make(chan *chunkJob, 64)}
	}
	for n.poolSpawned < extra {
		n.pool.wg.Add(1)
		go n.pool.work()
		n.poolSpawned++
	}
}

// Close stops the Network's chunk workers and returns once they have
// exited; whoever built the Network calls it when no forward pass is
// running or will be started. It is idempotent. A forward pass on a
// closed Network panics.
func (n *Network) Close() {
	n.scratchMu.Lock()
	closed := n.closed
	n.closed = true
	n.scratchMu.Unlock()
	if closed {
		return
	}
	n.poolMu.Lock()
	defer n.poolMu.Unlock()
	if n.pool != nil {
		close(n.pool.jobs)
		n.pool.wg.Wait()
	}
}

// scratch holds every buffer one forward pass needs, carved from a
// single arena slab, plus the pre-bound chunk kernels and dispatch
// plumbing. A scratch serves one forward pass at a time; the Network
// pools released scratches for reuse.
type scratch struct {
	net  *Network
	capB int // batch capacity the buffers are sized for
	maxW int // worker count snapshot (GOMAXPROCS at creation)

	// Layer geometry, computed once.
	imgLen, convLen        int
	ph, pw                 int // primary-caps conv output spatial size
	cols1Len, cols2Len     int
	primRawLen             int
	nl, cl, nh, ch, nclass int

	// Arena-carved buffers. batch backs ForwardBatch image assembly;
	// feats holds the conv outputs batch-wide (used by the fused and
	// the stage-split front end alike, so both are bit-identical);
	// u/preds/b/c/v/s are the routing state of Eqs. 1–5; lengths the
	// ‖v_j‖ outputs; cols1/cols2/praw are per-worker conv scratch.
	arena                  *tensor.Arena
	batch, feats, u, preds []float32
	b, c, v, s, lengths    []float32
	cols1, cols2, praw     [][]float32

	// Per-call bindings (plain field writes, no allocation).
	nb   int
	in   []float32
	math RoutingMath
	// dim is the routing run's resolved shard dimension and bstride
	// its logit row stride per sample (0 when coefficients are shared);
	// aggRange and agreeRange read them.
	dim     Partition
	bstride int
	// aborted is set by routing when the Network's Cancel hook fired
	// between iterations; forward reads it into Output.Aborted.
	aborted bool

	// Reused tensor views over the buffers above, re-bound per call.
	uT, bT, cT, vT, lengthsT *tensor.Tensor

	// out is the Output returned to the caller; it points at the views
	// above and back at this scratch for Release.
	out Output

	// Pre-bound chunk kernels (method values created once; they read
	// the fields above at call time, so growing the buffers does not
	// invalidate them).
	convPrimFn, convFn, primFn, predFn func(w, lo, hi int)
	softmaxFn, aggFn, agreeFn          func(w, lo, hi int)

	// Chunk-dispatch plumbing: a job slot per worker, a buffered done
	// channel sized for all of them, and a resettable panic cell.
	jobs []chunkJob
	done chan struct{}
	box  panicCell
}

// newScratch builds a scratch for batches up to nb samples.
func newScratch(n *Network, nb int) *scratch {
	s := &scratch{net: n}
	s.maxW = runtime.GOMAXPROCS(0)
	if s.maxW < 1 {
		s.maxW = 1
	}
	cfg := n.Config
	s.imgLen = cfg.InputChannels * cfg.InputH * cfg.InputW
	convSpec := n.Conv.Spec
	s.convLen = convSpec.Cout * n.convH * n.convW
	primSpec := n.Primary.Conv.Spec
	s.ph, s.pw = primSpec.OutSize(n.convH, n.convW)
	s.cols1Len = n.convH * n.convW * convSpec.Cin * convSpec.K * convSpec.K
	s.cols2Len = s.ph * s.pw * primSpec.Cin * primSpec.K * primSpec.K
	s.primRawLen = primSpec.Cout * s.ph * s.pw
	s.nl, s.cl = n.Digit.NumIn, n.Digit.DimIn
	s.nh, s.ch = n.Digit.NumOut, n.Digit.DimOut
	s.nclass = cfg.Classes
	s.alloc(nb)
	s.uT = tensor.New(0, 0, 0)
	s.bT = tensor.New(0, 0, 0)
	s.cT = tensor.New(0, 0, 0)
	s.vT = tensor.New(0, 0, 0)
	s.lengthsT = tensor.New(0, 0)
	s.jobs = make([]chunkJob, s.maxW)
	s.done = make(chan struct{}, s.maxW)
	if s.maxW > 1 {
		n.ensurePool(s.maxW - 1)
	}
	s.convPrimFn = s.convPrimRange
	s.convFn = s.convRange
	s.primFn = s.primRange
	s.predFn = s.predRange
	s.softmaxFn = s.softmaxRange
	s.aggFn = s.aggRange
	s.agreeFn = s.agreeRange
	// A scratch whose Output is never released dies with that Output
	// instead of returning to the pool; give its bytes back to the
	// gauge when the collector reclaims it. Pooled scratches stay
	// reachable from the Network, so their finalizers only run once the
	// Network itself is gone.
	runtime.SetFinalizer(s, func(s *scratch) {
		s.net.arenaFloats.Add(^(uint64(s.arena.Size()) - 1))
	})
	return s
}

// alloc sizes (or re-sizes, on batch growth) every buffer for batches
// up to nb, carving them out of one fresh arena slab. The pre-bound
// kernels read the slice fields at call time, so swapping the buffers
// here is safe between forward passes.
func (s *scratch) alloc(nb int) {
	perSample := s.imgLen + s.convLen + s.nl*s.cl + s.nl*s.nh*s.ch +
		2*s.nl*s.nh + 2*s.nh*s.ch + s.nclass
	perWorker := s.cols1Len + s.cols2Len + s.primRawLen
	total := nb*perSample + s.maxW*perWorker
	old := 0
	if s.arena != nil {
		old = s.arena.Size()
	}
	s.arena = tensor.NewArena(total)
	s.net.arenaFloats.Add(uint64(total - old))
	a := s.arena
	s.batch = a.Alloc(nb * s.imgLen)
	s.feats = a.Alloc(nb * s.convLen)
	s.u = a.Alloc(nb * s.nl * s.cl)
	s.preds = a.Alloc(nb * s.nl * s.nh * s.ch)
	s.b = a.Alloc(nb * s.nl * s.nh)
	s.c = a.Alloc(nb * s.nl * s.nh)
	s.v = a.Alloc(nb * s.nh * s.ch)
	s.s = a.Alloc(nb * s.nh * s.ch)
	s.lengths = a.Alloc(nb * s.nclass)
	if s.cols1 == nil {
		s.cols1 = make([][]float32, s.maxW)
		s.cols2 = make([][]float32, s.maxW)
		s.praw = make([][]float32, s.maxW)
	}
	for w := 0; w < s.maxW; w++ {
		s.cols1[w] = a.Alloc(s.cols1Len)
		s.cols2[w] = a.Alloc(s.cols2Len)
		s.praw[w] = a.Alloc(s.primRawLen)
	}
	s.capB = nb
}

// bind re-points the reused tensor views at the current batch size.
// Reuse copies the shape into each view's existing shape array, so
// this allocates nothing in steady state.
//
//pimcaps:hotpath
func (s *scratch) bind() {
	nb := s.nb
	s.uT.Reuse(s.u[:nb*s.nl*s.cl], nb, s.nl, s.cl)
	s.bT.Reuse(s.b[:nb*s.nl*s.nh], nb, s.nl, s.nh)
	s.cT.Reuse(s.c[:nb*s.nl*s.nh], nb, s.nl, s.nh)
	s.vT.Reuse(s.v[:nb*s.nh*s.ch], nb, s.nh, s.ch)
	s.lengthsT.Reuse(s.lengths[:nb*s.nclass], nb, s.nclass)
}

// runChunks splits [0, n) into one contiguous chunk per worker and
// runs fn over them: chunk 0 inline on the calling goroutine, the rest
// on the Network's persistent pool workers. Panics are captured and
// the first re-raised on the caller, matching parallelChunks. The
// dispatch allocates nothing: job slots, the done channel, and the
// panic cell are all part of the scratch.
//
//pimcaps:hotpath
func (s *scratch) runChunks(n int, fn func(worker, lo, hi int)) {
	workers := s.maxW
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	s.box.reset()
	chunk := (n + workers - 1) / workers
	used := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		j := &s.jobs[used]
		j.fn, j.worker, j.lo, j.hi, j.done, j.box = fn, w, lo, hi, s.done, &s.box
		used++
	}
	//lint:ignore pimcaps/guardedby pool is written once under poolMu in ensurePool, which this goroutine passed through when it acquired the scratch
	pool := s.net.pool
	for i := 1; i < used; i++ {
		pool.jobs <- &s.jobs[i]
	}
	s.jobs[0].run()
	for i := 0; i < used; i++ {
		<-s.done
	}
	s.box.repanic()
}

// convSample runs the front-end conv + ReLU for sample k into the
// batch-wide feature buffer, using worker w's im2col scratch. Same
// kernel, loop order, and math as ConvLayer.Forward — bit-identical.
//
//pimcaps:hotpath
func (s *scratch) convSample(w, k int) {
	n := s.net
	img := s.in[k*s.imgLen : (k+1)*s.imgLen]
	feat := s.feats[k*s.convLen : (k+1)*s.convLen]
	tensor.Conv2DInto(feat, s.cols1[w], img, n.Conv.Weights.Data(), n.Conv.Bias, n.Conv.Spec, n.Config.InputH, n.Config.InputW)
	tensor.ReLU(feat)
}

// primSample runs the PrimaryCaps conv for sample k into worker w's
// raw buffer and regroups and squashes it straight into the sample's
// u rows — the same kernel and epilogue as PrimaryCapsLayer.Forward.
//
//pimcaps:hotpath
func (s *scratch) primSample(w, k int) {
	n := s.net
	prim := n.Primary
	praw := s.praw[w]
	tensor.Conv2DInto(praw, s.cols2[w], s.feats[k*s.convLen:(k+1)*s.convLen],
		prim.Conv.Weights.Data(), prim.Conv.Bias, prim.Conv.Spec, n.convH, n.convW)
	regroupSquash(s.u[k*s.nl*s.cl:(k+1)*s.nl*s.cl], praw, prim.Channels, prim.CapsDim, s.ph*s.pw)
}

//pimcaps:hotpath
func (s *scratch) convPrimRange(w, lo, hi int) {
	for k := lo; k < hi; k++ {
		s.convSample(w, k)
		s.primSample(w, k)
	}
}

//pimcaps:hotpath
func (s *scratch) convRange(w, lo, hi int) {
	for k := lo; k < hi; k++ {
		s.convSample(w, k)
	}
}

//pimcaps:hotpath
func (s *scratch) primRange(w, lo, hi int) {
	for k := lo; k < hi; k++ {
		s.primSample(w, k)
	}
}

//pimcaps:hotpath
func (s *scratch) predRange(_, lo, hi int) {
	predictionVectorsRange(s.u, s.net.Digit.Weights.Data(), s.preds, s.nb, s.nl, s.cl, s.nh, s.ch, lo, hi)
}

// softmaxRange performs Eq. 5 for rows [lo, hi) of the flattened
// logit matrix (nb·nl rows per-sample, the first nl when shared).
//
//pimcaps:hotpath
func (s *scratch) softmaxRange(_, lo, hi int) {
	softmaxRows(s.math, s.c[lo*s.nh:hi*s.nh], s.b[lo*s.nh:hi*s.nh], hi-lo, s.nh)
}

//pimcaps:hotpath
func (s *scratch) aggRange(_, lo, hi int) {
	klo, khi, jlo, jhi := partitionRect(s.dim, s.nb, s.nh, lo, hi)
	aggregateRange(s.math, s.preds, s.c, s.s, s.v, s.nl, s.nh, s.ch, klo, khi, jlo, jhi)
}

//pimcaps:hotpath
func (s *scratch) agreeRange(_, lo, hi int) {
	klo, khi, jlo, jhi := partitionRect(s.dim, s.nb, s.nh, lo, hi)
	agreementRange(s.preds, s.v, s.b, s.bstride, s.nl, s.nh, s.ch, klo, khi, jlo, jhi)
}

// routing runs the dynamic-routing loop of DynamicRoutingTimed on the
// scratch buffers with pre-bound kernels: the same iteration skeleton,
// stage brackets, and kernels (see kernels.go), so results are
// bit-identical to the public path; only the buffer ownership and the
// closure binding differ.
//
//pimcaps:hotpath
func (s *scratch) routing(st StageTimer) {
	n := s.net
	nb, nl, nh, ch := s.nb, s.nl, s.nh, s.ch
	mode := n.Digit.Mode
	iterations := n.Digit.Iterations
	// The brownout iteration override can only shed iterations (floor
	// 1), never add them; with the hook nil the count — and the whole
	// loop — is bit-identical to the unhooked path.
	if lim := n.IterationLimit; lim != nil {
		if k := lim(); k < iterations {
			if k < 1 {
				k = 1
			}
			iterations = k
		}
	}
	cancel := n.Cancel
	s.aborted = false
	mathOps := s.math
	bd := s.b[:nb*nl*nh]
	cd := s.c[:nb*nl*nh]
	sd := s.s[:nb*nh*ch]
	clear(bd) // logits start at zero, as a fresh tensor would

	dim := ChoosePartition(n.Partition, nb, nl, nh, ch, s.maxW)
	if dim == PartitionB {
		n.partB.Add(1)
	} else {
		n.partH.Add(1)
	}
	endStage(beginStage(st, StageRoutingPartition, int(dim)))
	shardN, softRows := nb, nb*nl
	if dim == PartitionH {
		shardN = nh
	}
	s.dim, s.bstride = dim, nl*nh
	if mode == RouteBatchShared {
		softRows, s.bstride = nl, 0
	}

	for it := 0; it < iterations; it++ {
		// Cooperative cancellation: polled between iterations (including
		// before the first), so an all-expired batch stops burning the
		// most expensive stage of the pass and the arena goes straight
		// back to the pool via Release.
		if cancel != nil && cancel() {
			s.aborted = true
			return
		}
		iterEnd := beginStage(st, StageRoutingIteration, it)

		end := beginStage(st, StageRoutingSoftmax, it)
		if it == 0 {
			firstIterationCoefficients(mathOps, cd, bd, nh)
		} else {
			s.runChunks(softRows, s.softmaxFn)
			if mode == RouteBatchShared {
				for k := 1; k < nb; k++ {
					copy(cd[k*nl*nh:(k+1)*nl*nh], cd[:nl*nh])
				}
			}
		}
		endStage(end)

		end = beginStage(st, StageRoutingAggregate, it)
		clear(sd)
		s.runChunks(shardN, s.aggFn)
		endStage(end)

		if it == iterations-1 {
			endStage(iterEnd)
			break
		}

		end = beginStage(st, StageRoutingAgreement, it)
		if mode == RouteBatchShared && dim == PartitionB {
			agreementRange(s.preds, s.v, bd, 0, nl, nh, ch, 0, nb, 0, nh)
		} else {
			s.runChunks(shardN, s.agreeFn)
		}
		endStage(end)
		endStage(iterEnd)
	}
	if mode == RouteBatchShared {
		for k := 1; k < nb; k++ {
			copy(bd[k*nl*nh:(k+1)*nl*nh], bd[:nl*nh])
		}
	}
}

// acquireScratch pops a pooled scratch (growing it if the batch
// outgrew its buffers) or builds a fresh one. Steady state — a
// released scratch available, nb within capacity — is a mutex-guarded
// slice pop: zero allocations.
//
//pimcaps:hotpath
func (n *Network) acquireScratch(nb int) *scratch {
	n.scratchMu.Lock()
	if n.closed {
		n.scratchMu.Unlock()
		panic("capsnet: forward pass on a closed Network")
	}
	var s *scratch
	if k := len(n.scratchFree) - 1; k >= 0 {
		s = n.scratchFree[k]
		n.scratchFree[k] = nil
		n.scratchFree = n.scratchFree[:k]
	}
	n.scratchMu.Unlock()
	if s == nil {
		s = newScratch(n, nb)
	} else if s.capB < nb {
		s.alloc(nb)
	}
	s.nb = nb
	return s
}

// Release returns the Output's scratch arena to the Network's pool so
// the next Forward/ForwardBatch call reuses it — the step that makes
// the steady-state forward path allocation-free. After Release the
// Output and every tensor it exposes (Capsules, Lengths, Primary, the
// RoutingResult) alias buffers the next forward pass will overwrite;
// copy anything you need first. Release is idempotent; an Output that
// is never released simply keeps its buffers (the pre-arena behavior,
// safe but unpooled) until the collector reclaims them, but abandons
// the pooling win — which is why releasecheck makes every Forward
// caller, trainers included, reach a Release.
//
//pimcaps:hotpath
func (o *Output) Release() {
	s := o.scr
	if s == nil {
		return
	}
	o.scr = nil
	n := s.net
	n.scratchMu.Lock()
	//lint:ignore pimcaps/hotpathcheck the free-list grows to the steady-state scratch count and then never reallocates; there is no fixed bound to pre-size it to
	n.scratchFree = append(n.scratchFree, s)
	n.scratchMu.Unlock()
}

// ArenaBytes reports the bytes held by this Network's forward-pass
// scratch arenas (a high-water figure: arenas grow with the largest
// batch seen and are retained by the pool). Serving exposes it as the
// capsnet_arena_bytes gauge.
func (n *Network) ArenaBytes() uint64 { return 4 * n.arenaFloats.Load() }

// PartitionCounts reports how many routing runs sharded on the batch
// dimension and on the high-level-capsule dimension respectively —
// the observable face of the Eqs. 6–12 cost model behind the
// Partition knob.
func (n *Network) PartitionCounts() (batch, hcaps uint64) {
	return n.partB.Load(), n.partH.Load()
}
