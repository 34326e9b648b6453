package capsnet

import (
	"runtime"

	"pimcapsnet/internal/tensor"
)

// This file implements the allocation-free forward path: a per-Network
// pool of scratch arenas sized once from the layer shapes, acquired
// per Forward/ForwardBatch call, and reused across routing iterations
// and across calls. In steady state (every Output released, batch
// sizes at or below the high-water mark) a forward pass performs zero
// heap allocations: all tensors are views Reuse-bound over one arena
// slab, the chunk kernels are method values bound once at scratch
// creation, and chunk dispatch rides the Network's persistent workers
// (parallel.go). This is the software analogue of the on-chip buffer
// management the paper's related accelerators (CapsAcc, DESCNet) use
// to attack the same data-reuse problem.

// ensurePool returns the Network's worker pool, created on first use
// and grown to at least extra workers (a dispatcher runs chunk 0
// itself, so extra = its worker count − 1). Called at scratch creation,
// never on the hot path. The workers live until Close.
func (n *Network) ensurePool(extra int) *workerPool {
	n.poolMu.Lock()
	defer n.poolMu.Unlock()
	if n.pool == nil {
		n.pool = newWorkerPool()
	}
	if extra > n.poolSpawned {
		n.pool.spawn(extra - n.poolSpawned)
		n.poolSpawned = extra
	}
	return n.pool
}

// Close stops the Network's chunk workers and returns once they have
// exited; whoever built the Network calls it when no forward pass is
// running or will be started. It drops the pooled scratches, taking
// their bytes off ArenaBytes, as Release does for an Output released
// after Close; an Output never released keeps counting. It is
// idempotent. A forward pass on a closed Network panics.
func (n *Network) Close() {
	n.scratchMu.Lock()
	closed := n.closed
	n.closed = true
	free := n.scratchFree
	n.scratchFree = nil
	n.scratchMu.Unlock()
	if closed {
		return
	}
	for _, s := range free {
		s.drop()
	}
	n.poolMu.Lock()
	defer n.poolMu.Unlock()
	if n.pool != nil {
		n.pool.close()
	}
}

// scratch holds every buffer one forward pass needs, carved from a
// single arena slab, plus the pre-bound chunk kernels. A scratch
// serves one forward pass at a time; the Network pools released
// scratches for reuse.
type scratch struct {
	net  *Network
	capB int // batch capacity the buffers are sized for

	// chunker dispatches into the Network's pool; its worker count is
	// GOMAXPROCS at scratch creation.
	*chunker
	// routing is the Eq. 2–5 state (û, b, c, v, s carved from the arena
	// at batch capacity; nb and math bound per call) and the loop.
	routing

	// Layer geometry, computed once.
	imgLen, convLen int
	ph, pw          int // primary-caps conv output spatial size
	primRawLen      int
	primChunks      int // PrimaryCaps dispatch units: see primChunkRows
	cl, nclass      int

	// The other arena-carved buffers. batch backs ForwardBatch image
	// assembly; feats holds the conv outputs batch-wide; praw the
	// PrimaryCaps conv's raw output, batch-wide as one Cout × nb·ph·pw
	// product; u the primary capsules Eq. 1 reads; lengths the ‖v_j‖
	// outputs; cols is per-worker im2col scratch (as routing.agreeV is
	// Eq. 4's), sized for the larger of the two conv layers: their
	// dispatches run one after the other, so they never share a
	// worker's buffer at once.
	arena                 *tensor.Arena
	batch, feats, praw, u []float32
	lengths               []float32
	cols                  [][]float32

	// in is the pass's input images, bound per call.
	in []float32

	// Reused tensor views over the buffers above, re-bound per call.
	uT, bT, cT, vT, lengthsT *tensor.Tensor

	// out is the Output returned to the caller; it points at the views
	// above and back at this scratch for Release.
	out Output

	// Pre-bound front-end and Eq. 1 chunk kernels (method values created
	// once; they read the fields above at call time, so growing the
	// buffers does not invalidate them).
	convFn, primFn, predFn func(w, lo, hi int)
}

// newScratch builds a scratch for batches up to nb samples.
func newScratch(n *Network, nb int) *scratch {
	s := &scratch{net: n}
	workers := runtime.GOMAXPROCS(0)
	s.chunker = newChunker(n.ensurePool(workers-1), workers)
	cfg := n.Config
	s.imgLen = cfg.InputChannels * cfg.InputH * cfg.InputW
	convSpec := n.Conv.Spec
	s.convLen = convSpec.Cout * n.convH * n.convW
	primSpec := n.Primary.Conv.Spec
	s.ph, s.pw = primSpec.OutSize(n.convH, n.convW)
	s.primRawLen = primSpec.Cout * s.ph * s.pw
	s.primChunks = min(n.Primary.Channels, max(1, primSpec.Cout/primChunkRows))
	s.nl, s.cl = n.Digit.NumIn, n.Digit.DimIn
	s.nh, s.ch = n.Digit.NumOut, n.Digit.DimOut
	s.nclass = cfg.Classes
	s.alloc(nb)
	s.uT = tensor.New(0, 0, 0)
	s.bT = tensor.New(0, 0, 0)
	s.cT = tensor.New(0, 0, 0)
	s.vT = tensor.New(0, 0, 0)
	s.lengthsT = tensor.New(0, 0)
	s.convFn = s.convRange
	s.primFn = s.primRange
	s.predFn = s.predRange
	s.bindKernels()
	return s
}

// drop takes the scratch's arena off the ArenaBytes gauge; the pool
// forgets it and the collector reclaims it.
func (s *scratch) drop() { s.net.arenaFloats.Add(^(uint64(s.arena.Size()) - 1)) }

// alloc sizes (or re-sizes, on batch growth) every buffer for batches
// up to nb, carving them out of one fresh arena slab. The pre-bound
// kernels read the slice fields at call time, so swapping the buffers
// here is safe between forward passes.
func (s *scratch) alloc(nb int) {
	perSample := s.imgLen + s.convLen + s.primRawLen + s.nl*s.cl + s.nl*s.nh*s.ch +
		2*s.nl*s.nh + 2*s.nh*s.ch + s.nclass
	agreeVLen := agreeReplicaLen(s.nh, s.ch)
	n := s.net
	colsLen := max(tensor.ConvColsLen(n.Conv.Spec, n.Config.InputH, n.Config.InputW, 1),
		tensor.ConvColsLen(n.Primary.Conv.Spec, n.convH, n.convW, nb))
	perWorker := colsLen + agreeVLen
	total := nb*perSample + s.workers*perWorker
	old := 0
	if s.arena != nil {
		old = s.arena.Size()
	}
	s.arena = tensor.NewArena(total)
	n.arenaFloats.Add(uint64(total - old))
	a := s.arena
	s.batch = a.Alloc(nb * s.imgLen)
	s.feats = a.Alloc(nb * s.convLen)
	s.praw = a.Alloc(nb * s.primRawLen)
	s.u = a.Alloc(nb * s.nl * s.cl)
	s.preds = a.Alloc(nb * s.nl * s.nh * s.ch)
	s.b = a.Alloc(nb * s.nl * s.nh)
	s.c = a.Alloc(nb * s.nl * s.nh)
	s.v = a.Alloc(nb * s.nh * s.ch)
	s.s = a.Alloc(nb * s.nh * s.ch)
	s.lengths = a.Alloc(nb * s.nclass)
	if s.cols == nil {
		s.cols = make([][]float32, s.workers)
		s.agreeV = make([][]float32, s.workers)
	}
	for w := 0; w < s.workers; w++ {
		s.cols[w] = a.Alloc(colsLen)
		s.agreeV[w] = a.Alloc(agreeVLen)
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

// convRange runs the front-end conv + ReLU for samples [lo, hi) into
// the batch-wide feature buffer, using worker w's im2col scratch. Same
// kernel, loop order, and math as ConvLayer.Forward — bit-identical.
//
//pimcaps:hotpath
func (s *scratch) convRange(w, lo, hi int) {
	n := s.net
	h, wd := n.Config.InputH, n.Config.InputW
	cols := s.cols[w][:tensor.ConvColsLen(n.Conv.Spec, h, wd, 1)]
	for k := lo; k < hi; k++ {
		feat := s.feats[k*s.convLen : (k+1)*s.convLen]
		tensor.Conv2DInto(feat, cols, s.in[k*s.imgLen:(k+1)*s.imgLen], n.Conv.Weights.Data(), n.Conv.Bias, n.Conv.Spec, h, wd, 1)
		tensor.ReLU(feat)
	}
}

// primChunkRows is about the fewest PrimaryCaps output rows (capsule
// channels × capsule dimension) a worker takes. Every worker lowers the
// whole batch's im2col for itself, at about the cost of ten output
// rows' multiply-adds (0.35–0.5 ns per lowered float against 24 GMAC/s
// of tile), so splitting the rows finer would spend added cores on
// repeated lowering: at 64 rows a worker the repeat is about a sixth of
// its work. cv288's 64 rows run on one worker, mn1's and rp3872's 256
// on up to four.
const primChunkRows = 64

// primRange runs the PrimaryCaps conv for dispatch units [lo, hi) of
// primChunks, each a contiguous run of capsule channels, over every
// sample in the pass — one product of the channels' weight rows with
// the whole batch's lowering, using worker w's im2col scratch — and
// regroups and squashes its rows of praw straight into each sample's
// u rows: the same kernel as ConvLayer.Forward and the epilogue
// regroupSquash.
// Chunking over channels rather than samples means each worker streams
// only its share of the weights, once per pass, and a batch of one
// still spreads over the workers primChunks allows.
//
//pimcaps:hotpath
func (s *scratch) primRange(w, lo, hi int) {
	n := s.net
	prim := n.Primary
	lo, hi = lo*prim.Channels/s.primChunks, hi*prim.Channels/s.primChunks
	d, kk, hw := prim.CapsDim, prim.Conv.Weights.Dim(1), s.ph*s.pw
	nb, pos := s.nb, s.nb*hw
	spec := prim.Conv.Spec
	spec.Cout = (hi - lo) * d
	raw := s.praw[lo*d*pos : hi*d*pos]
	cols := s.cols[w][:tensor.ConvColsLen(spec, n.convH, n.convW, nb)] // sized for capB ≥ nb
	tensor.Conv2DInto(raw, cols, s.feats[:nb*s.convLen], prim.Conv.Weights.Data()[lo*d*kk:hi*d*kk],
		prim.Conv.Bias[lo*d:hi*d], spec, n.convH, n.convW, nb)
	for k := 0; k < nb; k++ {
		u := s.u[k*s.nl*s.cl : (k+1)*s.nl*s.cl]
		regroupSquash(u[lo*hw*d:hi*hw*d], raw[k*hw:], hi-lo, d, hw, pos)
	}
}

//pimcaps:hotpath
func (s *scratch) predRange(_, lo, hi int) {
	predictionVectorsRange(s.u, s.net.Digit.Weights.Data(), s.preds, s.nb, s.nl, s.cl, s.nh, s.ch, lo, hi)
}

// rerouteSample re-runs the routing loop for batch element k alone
// with ExactMath, in place: û does not depend on the math, so the loop
// runs over sample k's windows of the pass's own buffers, with the
// pass's iteration count and no timer. Under RoutePerSample this
// reproduces exactly what a full exact-math batch pass would compute
// for that sample.
func (s *scratch) rerouteSample(k, iterations int) {
	pass := s.routing
	r := &s.routing
	rowP, rowC, rowV := r.nl*r.nh*r.ch, r.nl*r.nh, r.nh*r.ch
	r.preds = pass.preds[k*rowP : (k+1)*rowP]
	r.b = pass.b[k*rowC : (k+1)*rowC]
	r.c = pass.c[k*rowC : (k+1)*rowC]
	r.v = pass.v[k*rowV : (k+1)*rowV]
	r.s = pass.s[k*rowV : (k+1)*rowV]
	r.nb, r.math = 1, ExactMath{}
	r.run(s.chunker, s.net.Digit.Mode, iterations, nil, nil)
	s.routing = pass
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
	if n.closed {
		n.scratchMu.Unlock()
		s.drop()
		return
	}
	//lint:ignore pimcaps/hotpathcheck the free-list grows to the steady-state scratch count and then never reallocates; there is no fixed bound to pre-size it to
	n.scratchFree = append(n.scratchFree, s)
	n.scratchMu.Unlock()
}

// ArenaBytes reports the bytes held by this Network's forward-pass
// scratch arenas (a high-water figure: arenas grow with the largest
// batch seen and are retained by the pool until Close). Serving
// exposes it as the capsnet_arena_bytes gauge.
func (n *Network) ArenaBytes() uint64 { return 4 * n.arenaFloats.Load() }

// WeightHugePageBytes reports how many bytes of the capsule layer's W
// the kernel backs with 2 MB pages now (tensor.HugePageBytes): read
// back from the process's memory map, not counted when W was
// allocated. It reads 0 off linux, with transparent huge pages off, and
// for a W under 2 MB. Serving exposes it as the
// capsnet_weight_hugepage_bytes gauge.
func (n *Network) WeightHugePageBytes() uint64 { return tensor.HugePageBytes(n.Digit.Weights.Data()) }
