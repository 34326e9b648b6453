package capsnet

import (
	"runtime"
	"sync"
)

// This file is the package's one chunk dispatcher: a workerPool of
// goroutines fed pointers to pre-allocated job slots, and the chunker
// through which one caller splits an index range over it. A Network
// owns a pool until Close and every scratch dispatches into it; a
// caller without a Network (the public routing entry points, the
// trainer) opens a pool around a single call and joins it before
// returning. Either way a dispatch allocates nothing and spawns
// nothing.

// panicCell captures the first panic raised by a set of chunk workers
// so the dispatching goroutine can re-raise it after all chunks
// complete. Without it a panic inside a worker goroutine kills the
// whole process — no recover() on the serving path can reach it —
// which is exactly the failure mode the fault-injection campaign
// exercises. It is resettable, so one cell serves every dispatch of a
// chunker.
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
// pre-allocated per-chunker array; only pointers to them travel
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

// workerPool is a set of chunk workers, launched once and fed jobs
// through a channel. Concurrent dispatchers may share a pool — total
// parallelism stays bounded by the worker count, which is the point.
// Whoever opened the pool closes it.
type workerPool struct {
	jobs chan *chunkJob
	wg   sync.WaitGroup
}

func newWorkerPool() *workerPool {
	// The buffer lets a dispatcher hand over all its chunks and start
	// on its own; when it is full the dispatcher only waits earlier
	// for workers it is about to wait for anyway.
	return &workerPool{jobs: make(chan *chunkJob, 64)}
}

// spawn adds k workers. A dispatcher runs chunk 0 itself, so a pool
// needs one worker fewer than its widest chunker.
func (p *workerPool) spawn(k int) {
	for ; k > 0; k-- {
		p.wg.Add(1)
		go p.work()
	}
}

func (p *workerPool) work() {
	defer p.wg.Done()
	for j := range p.jobs {
		j.run()
	}
}

// close stops the workers and returns once they have exited.
func (p *workerPool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// chunker is one caller's dispatch state over a pool: a job slot per
// worker, a buffered done channel sized for all of them, and a
// resettable panic cell. It serves one dispatch at a time.
type chunker struct {
	pool    *workerPool
	workers int
	jobs    []chunkJob
	done    chan struct{}
	box     panicCell
}

func newChunker(pool *workerPool, workers int) *chunker {
	return &chunker{pool: pool, workers: workers, jobs: make([]chunkJob, workers), done: make(chan struct{}, workers)}
}

// openChunker returns a GOMAXPROCS-wide chunker over a pool of its
// own, for a caller that has no Network to borrow one from. The caller
// joins the workers with pool.close before it returns.
func openChunker() *chunker {
	workers := runtime.GOMAXPROCS(0)
	pool := newWorkerPool()
	pool.spawn(workers - 1)
	return newChunker(pool, workers)
}

// runChunks splits [0, n) into one contiguous chunk per worker and
// runs fn over them: chunk 0 inline on the calling goroutine, the rest
// on the pool's workers. Workers receive distinct worker indices so
// they can own private buffers the caller merges afterwards. A panic
// in any chunk is captured, the remaining chunks finish, and the first
// panic is re-raised on the caller — the control flow of a panicking
// serial loop instead of a process crash. It returns the number of
// chunks run.
//
//pimcaps:hotpath
func (d *chunker) runChunks(n int, fn func(worker, lo, hi int)) int {
	workers := min(d.workers, n)
	if workers <= 1 {
		fn(0, 0, n)
		return 1
	}
	d.box.reset()
	chunk := (n + workers - 1) / workers
	used := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		j := &d.jobs[used]
		j.fn, j.worker, j.lo, j.hi, j.done, j.box = fn, w, lo, hi, d.done, &d.box
		used++
	}
	for i := 1; i < used; i++ {
		d.pool.jobs <- &d.jobs[i]
	}
	d.jobs[0].run()
	for i := 0; i < used; i++ {
		<-d.done
	}
	d.box.repanic()
	return used
}
