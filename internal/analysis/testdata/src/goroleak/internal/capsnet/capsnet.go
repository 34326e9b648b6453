// Package capsnet is the goroleak golden for the engine's persistent
// chunk workers: a pool whose owner can join it is clean, a pool whose
// only way out is the garbage collector is not.
package capsnet

import (
	"runtime"
	"sync"
)

type pool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

// work exits when jobs is closed and reports it to the WaitGroup.
func (p *pool) work() {
	defer p.wg.Done()
	for j := range p.jobs {
		j()
	}
}

// Start spawns a worker that Close joins: clean.
func (p *pool) Start() {
	p.wg.Add(1)
	go p.work()
}

// Close stops the workers and waits for them.
func (p *pool) Close() {
	close(p.jobs)
	p.wg.Wait()
}

type network struct{ p *pool }

// drain is the same loop with nobody to tell when it ends.
func (p *pool) drain() {
	for j := range p.jobs {
		j()
	}
}

// StartFinalized hands the worker's lifetime to the collector: the
// close in the finalizer is not in the goroutine's body, and nothing
// can wait for the worker to exit.
func (n *network) StartFinalized() {
	runtime.SetFinalizer(n, func(n *network) { close(n.p.jobs) })
	go n.p.drain() // want `goroutine has no bounded lifetime: it loops`
}
