// Package fault is a deterministic, seeded fault-injection framework
// for the serving stack. It provides the low-level corruptions the
// PIM-CapsNet robustness campaign needs — bit flips in weight or
// activation tensors, NaN/Inf injection at routing inputs, forced
// panics inside worker functions, and artificial batch stalls — as
// composable hooks that plug into the optional hook points exposed by
// internal/capsnet (Network.RoutingInputHook) and internal/serve
// (Config.PreRunHook).
//
// Two properties drive the design:
//
//   - Reproducibility: every random decision flows from one Injector
//     seed, so a failing campaign run is replayed exactly by reusing
//     the seed it logged.
//   - Zero overhead when disabled: hook points are nil-checked
//     function fields and every hook is guarded by a Gate that is
//     disarmed (a single atomic load) by default, so production
//     binaries pay nothing.
//
// The package depends only on the standard library; the packages it
// injects faults into never import it, they only expose hooks.
package fault

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedPanic is the value forced panics carry, so recovery
// paths (and tests) can tell an injected panic from a real bug.
var ErrInjectedPanic = errors.New("fault: injected panic")

// Injector is a deterministic source of fault decisions. All methods
// are safe for concurrent use; the shared RNG is serialized by a
// mutex, which is irrelevant for performance because injection only
// runs in fault campaigns.
type Injector struct {
	mu sync.Mutex
	// seed is immutable after New; only the RNG stream needs the lock.
	seed int64
	//pimcaps:guardedby mu
	rng *rand.Rand
}

// New returns an Injector whose whole decision stream derives from
// seed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Seed returns the seed the injector was built with, for logging a
// reproduction recipe alongside campaign failures.
func (in *Injector) Seed() int64 { return in.seed }

// Reset rewinds the decision stream to its initial seeded state, so
// one Injector can drive several identical campaign phases.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rng = rand.New(rand.NewSource(in.seed))
}

// FlipBit flips one uniformly chosen bit of one uniformly chosen
// element of data (a single-event upset in a weight or activation
// tensor) and returns the element index and bit position for logging.
func (in *Injector) FlipBit(data []float32) (idx, bit int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	idx = in.rng.Intn(len(data))
	bit = in.rng.Intn(32)
	data[idx] = math.Float32frombits(math.Float32bits(data[idx]) ^ (1 << uint(bit)))
	return idx, bit
}

// FlipBits applies n independent FlipBit events to data.
func (in *Injector) FlipBits(data []float32, n int) {
	for i := 0; i < n; i++ {
		in.FlipBit(data)
	}
}

// Duration returns a seeded-uniform duration in [min, max] — the
// per-batch slowdown of the queue-pressure injector. min == max pins
// it exactly.
func (in *Injector) Duration(min, max time.Duration) time.Duration {
	if max <= min {
		return min
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return min + time.Duration(in.rng.Int63n(int64(max-min)+1))
}

// CorruptNonFinite overwrites n uniformly chosen elements of data
// with a random choice of NaN, +Inf, or −Inf — the values the PE
// approximations saturate to at their domain edges.
func (in *Injector) CorruptNonFinite(data []float32, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	poison := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := 0; i < n; i++ {
		data[in.rng.Intn(len(data))] = poison[in.rng.Intn(len(poison))]
	}
}

// Gate arms a hook for a bounded number of firings. The zero value is
// permanently disarmed; Fire on a disarmed gate is one atomic load.
// Gates make injectors composable: several hooks can share one chain
// while each fires only during its own campaign phase.
type Gate struct {
	remaining atomic.Int64
}

// Arm allows the next n firings.
func (g *Gate) Arm(n int) { g.remaining.Store(int64(n)) }

// Disarm cancels any remaining firings.
func (g *Gate) Disarm() { g.remaining.Store(0) }

// Armed reports whether at least one firing remains.
func (g *Gate) Armed() bool { return g.remaining.Load() > 0 }

// Fire consumes one firing and reports whether the fault should
// trigger.
func (g *Gate) Fire() bool {
	for {
		n := g.remaining.Load()
		if n <= 0 {
			return false
		}
		if g.remaining.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// BatchHook is the signature of internal/serve's pre-run hook: it
// observes (and may mutate) the assembled micro-batch images.
type BatchHook func(images [][]float32)

// SliceHook is the signature of internal/capsnet's routing-input
// hook: it observes (and may mutate) a flattened activation tensor.
type SliceHook func(data []float32)

// CorruptBatchHook returns a BatchHook that, while g is armed,
// injects perImage non-finite values into every image of the batch.
func CorruptBatchHook(in *Injector, g *Gate, perImage int) BatchHook {
	return func(images [][]float32) {
		if !g.Fire() {
			return
		}
		for _, img := range images {
			in.CorruptNonFinite(img, perImage)
		}
	}
}

// FlipBatchHook returns a BatchHook that, while g is armed, flips
// bitsPerImage random bits in every image of the batch.
func FlipBatchHook(in *Injector, g *Gate, bitsPerImage int) BatchHook {
	return func(images [][]float32) {
		if !g.Fire() {
			return
		}
		for _, img := range images {
			in.FlipBits(img, bitsPerImage)
		}
	}
}

// PanicBatchHook returns a BatchHook that panics with
// ErrInjectedPanic while g is armed — the forced-panic injector for
// batcher work functions.
func PanicBatchHook(g *Gate) BatchHook {
	return func([][]float32) {
		if g.Fire() {
			panic(ErrInjectedPanic)
		}
	}
}

// StallBatchHook returns a BatchHook that sleeps for d while g is
// armed — the artificial batch stall the serve watchdog must bound.
func StallBatchHook(g *Gate, d time.Duration) BatchHook {
	return func([][]float32) {
		if g.Fire() {
			time.Sleep(d)
		}
	}
}

// PressureBatchHook returns a BatchHook that, while g is armed, delays
// each batch by a seeded-uniform duration in [min, max] — synthetic
// queue pressure for overload drills: slowing the runner makes the
// admission queue back up, which drives queue waits (the brownout
// controller's input signal) and eventually 429 backpressure, without
// wedging a batch outright the way StallBatchHook does. Arm the gate
// with the number of batches one pressure wave should slow.
func PressureBatchHook(in *Injector, g *Gate, min, max time.Duration) BatchHook {
	return func([][]float32) {
		if g.Fire() {
			time.Sleep(in.Duration(min, max))
		}
	}
}

// ChainBatchHooks composes hooks into one BatchHook that runs them in
// order; nil entries are skipped.
func ChainBatchHooks(hooks ...BatchHook) BatchHook {
	return func(images [][]float32) {
		for _, h := range hooks {
			if h != nil {
				h(images)
			}
		}
	}
}

// CorruptSliceHook returns a SliceHook that injects n non-finite
// values while g is armed — NaN/Inf injection at routing inputs.
func CorruptSliceHook(in *Injector, g *Gate, n int) SliceHook {
	return func(data []float32) {
		if g.Fire() {
			in.CorruptNonFinite(data, n)
		}
	}
}

// PanicSliceHook returns a SliceHook that panics with
// ErrInjectedPanic while g is armed — the forced-panic injector for
// code reached through the forward pass.
func PanicSliceHook(g *Gate) SliceHook {
	return func([]float32) {
		if g.Fire() {
			panic(ErrInjectedPanic)
		}
	}
}
