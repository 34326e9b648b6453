package capsnet

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// errBoom is a recognizable panic payload for the recovery tests.
var errBoom = errors.New("boom")

// eachPoolLifetime runs fn on a four-worker chunker over each kind of
// pool the dispatcher is fed by: one opened and joined around a single
// call, and a Network's, which lives until Close.
func eachPoolLifetime(t *testing.T, fn func(t *testing.T, d *chunker)) {
	prev := runtime.GOMAXPROCS(4) // real pool workers on any host
	defer runtime.GOMAXPROCS(prev)
	t.Run("per-call pool", func(t *testing.T) {
		d := openChunker()
		defer d.pool.close()
		fn(t, d)
	})
	t.Run("network pool", func(t *testing.T) {
		net, err := New(TinyConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		fn(t, net.acquireScratch(1).chunker)
	})
}

// TestParallelChunksRepanicsOnCaller: a panic in a chunk must not kill
// the process, whether it is raised in chunk 0 (run inline by the
// dispatching goroutine) or on a pool worker, or on the serial path a
// one-item range takes. It is re-raised on the caller with the original
// value once the other chunks have run, like a panicking serial loop,
// and the chunker serves the next dispatch as if nothing happened.
func TestParallelChunksRepanicsOnCaller(t *testing.T) {
	eachPoolLifetime(t, func(t *testing.T, d *chunker) {
		for _, tc := range []struct {
			name     string
			n, chunk int
		}{
			{"inline chunk", 64, 0},
			{"pool worker", 64, 2},
			{"serial path", 1, 0},
		} {
			var ran atomic.Int64
			func() {
				defer func() {
					p := recover()
					if p == nil {
						t.Fatalf("%s: panic was swallowed", tc.name)
					}
					if err, ok := p.(error); !ok || !errors.Is(err, errBoom) {
						t.Fatalf("%s: recovered %v, want the original panic value", tc.name, p)
					}
				}()
				d.runChunks(tc.n, func(worker, lo, hi int) {
					if worker == tc.chunk {
						panic(errBoom)
					}
					ran.Add(1)
				})
				t.Fatalf("%s: runChunks returned instead of panicking", tc.name)
			}()
			if want := int64(min(tc.n, 4) - 1); ran.Load() != want {
				t.Fatalf("%s: %d other chunks ran, want %d", tc.name, ran.Load(), want)
			}
			if used := d.runChunks(64, func(_, _, _ int) {}); used != 4 {
				t.Fatalf("%s: dispatch after the panic used %d chunks, want 4", tc.name, used)
			}
		}
	})
}

// TestParallelChunksNoFault: every index of [0, n) is visited exactly
// once, by distinct worker indices numbered from 0, whether n fills the
// workers, leaves some idle (n < workers) or is empty.
func TestParallelChunksNoFault(t *testing.T) {
	eachPoolLifetime(t, func(t *testing.T, d *chunker) {
		for _, tc := range []struct{ n, used int }{{0, 1}, {1, 1}, {3, 3}, {4, 4}, {9, 3}, {100, 4}, {257, 4}} {
			covered := make([]atomic.Int32, tc.n)
			var workers [4]atomic.Int32
			used := d.runChunks(tc.n, func(worker, lo, hi int) {
				workers[worker].Add(1)
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
				}
			})
			if used != tc.used {
				t.Fatalf("n=%d: ran %d chunks, want %d", tc.n, used, tc.used)
			}
			for w := range workers {
				want := int32(0)
				if w < used {
					want = 1
				}
				if workers[w].Load() != want {
					t.Fatalf("n=%d: worker index %d ran %d chunks, want %d", tc.n, w, workers[w].Load(), want)
				}
			}
			for i := range covered {
				if covered[i].Load() != 1 {
					t.Fatalf("n=%d: index %d covered %d times", tc.n, i, covered[i].Load())
				}
			}
		}
	})
}

// TestPublicRoutingAllocsIndependentOfIterations: what a call of the
// public entry point allocates — the result tensors, the routing state
// and its three bound kernels, the chunker — does not grow with the
// iteration count, as it did when every dispatch made a closure (and,
// on more than one core, goroutines). testing.AllocsPerRun measures at
// GOMAXPROCS 1, which keeps the count exact.
func TestPublicRoutingAllocsIndependentOfIterations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	preds := randPreds(rand.New(rand.NewSource(5)), 4, 24, 5, 8)
	allocs := func(iterations int) int {
		return int(testing.AllocsPerRun(10, func() {
			DynamicRoutingMode(preds, iterations, ExactMath{}, RoutePerSample)
		}))
	}
	if one, five := allocs(1), allocs(5); one != five {
		t.Fatalf("allocs/op: %v for 1 iteration, %v for 5", one, five)
	}
}
