// Package paniccheck holds the goldens for the worker-pool panic
// analyzer: rule 1 (no direct panic in worker bodies) and rule 2
// (the dispatcher keeps its recover-and-repanic wrapper; the sibling
// package kept holds the clean declaration).
package paniccheck

type chunkJob struct{}

// run dropped its wrapper: rule 2 flags the declaration.
func (j *chunkJob) run() { // want `run must keep its deferred recover-and-repanic wrapper`
}

// runChunks is the worker-taker of rule 1; the wrapper rule 2 protects
// lives in chunkJob.run, so its own declaration is not checked.
func runChunks(n int, fn func(worker, lo, hi int)) {
	fn(0, 0, n)
}

func callers(n int) {
	runChunks(n, func(w, lo, hi int) {
		panic("chunk") // want `worker body passed to runChunks calls panic directly`
	})
	runChunks(n, func(w, lo, hi int) {
		_ = lo + hi
	})
	runChunks(n, func(w, lo, hi int) {
		if w < 0 {
			panic("bad worker") // want `worker body passed to runChunks calls panic directly`
		}
	})
}

func suppressedPanic(n int) {
	runChunks(n, func(w, lo, hi int) {
		//lint:ignore pimcaps/paniccheck this golden documents a justified direct panic
		panic("documented")
	})
}
