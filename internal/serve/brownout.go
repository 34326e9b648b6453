package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BrownoutConfig tunes the adaptive-fidelity overload controller. The
// zero value disables brownout entirely (the server behaves exactly as
// it did without the controller); set Enabled to opt in.
type BrownoutConfig struct {
	// Enabled turns the controller on. Off, the server installs no
	// capsnet hooks and the forward path is bit-identical to the
	// pre-brownout server.
	Enabled bool
	// EngageThreshold is the per-batch queue wait at or above which the
	// controller reads overload pressure. Default 25ms.
	EngageThreshold time.Duration
	// RecoverThreshold is the queue wait at or below which the
	// controller reads calm; waits between the two thresholds hold the
	// current level (the hysteresis band, so the level does not flap
	// around one boundary). Default 2ms.
	RecoverThreshold time.Duration
	// Hold is how long pressure (or calm) must persist before the
	// controller steps one level up (or down) — and how long between
	// consecutive steps under sustained signal. Default 250ms.
	Hold time.Duration
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.EngageThreshold == 0 {
		c.EngageThreshold = 25 * time.Millisecond
	}
	if c.RecoverThreshold == 0 {
		c.RecoverThreshold = 2 * time.Millisecond
	}
	if c.Hold == 0 {
		c.Hold = 250 * time.Millisecond
	}
	return c
}

func (c BrownoutConfig) validate() error {
	if !c.Enabled {
		return nil
	}
	if c.EngageThreshold <= 0 || c.RecoverThreshold < 0 {
		return fmt.Errorf("serve: brownout thresholds engage=%v recover=%v, need engage > 0 and recover ≥ 0", c.EngageThreshold, c.RecoverThreshold)
	}
	if c.RecoverThreshold >= c.EngageThreshold {
		return fmt.Errorf("serve: brownout RecoverThreshold %v must be below EngageThreshold %v (the gap is the hysteresis band)", c.RecoverThreshold, c.EngageThreshold)
	}
	if c.Hold < 0 {
		return fmt.Errorf("serve: negative brownout Hold %v", c.Hold)
	}
	return nil
}

// brownout is the hysteresis state machine that trades routing
// fidelity for latency under sustained queue pressure. Levels:
//
//	0                     full fidelity (configured iterations)
//	1 … iterations-1      shed one routing iteration per level; the last
//	                      level runs one iteration
//
// The ladder sheds only work: approximate routing math is not a level,
// because on this engine it costs more time than exact math.
//
// The controller is driven by the batcher: observe is called once per
// launched batch with that batch's worst queue wait. Pressure at or
// above EngageThreshold sustained for Hold steps the level up; calm at
// or below RecoverThreshold sustained for Hold steps it down; waits in
// between reset both windows, holding the current level. Level reads
// (Level, iterationCap) are lock-free atomics because the inference
// goroutine consults them mid-batch.
type brownout struct {
	cfg BrownoutConfig
	// iters is the network's configured routing iteration count;
	// maxLevel = iters-1 shedding levels.
	iters    int
	maxLevel int

	level atomic.Int64

	mu sync.Mutex
	//pimcaps:guardedby mu
	pressureSince time.Time
	//pimcaps:guardedby mu
	calmSince time.Time
}

// newBrownout builds the controller for a network with the given
// configured routing iteration count. cfg must be enabled and
// validated.
func newBrownout(cfg BrownoutConfig, routingIterations int) *brownout {
	// Shedding below 1 iteration is never allowed.
	return &brownout{cfg: cfg, iters: routingIterations, maxLevel: max(routingIterations-1, 0)}
}

// Level returns the current brownout level (0 = full fidelity).
func (b *brownout) Level() int { return int(b.level.Load()) }

// levels returns how many distinct levels exist (maxLevel+1), sizing
// the per-level request counters.
func (b *brownout) levels() int { return b.maxLevel + 1 }

// iterationCap is installed as the network's IterationLimit hook: the
// per-run routing iteration count at the current level, never below 1.
func (b *brownout) iterationCap() int {
	return max(b.iters-int(b.level.Load()), 1)
}

// observe feeds one launched batch's worst queue wait into the state
// machine. now is the batch launch stamp (the batcher's clock), so
// tests drive the machine with an injected clock.
func (b *brownout) observe(queueWait time.Duration, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	lvl := int(b.level.Load())
	switch {
	case queueWait >= b.cfg.EngageThreshold:
		b.calmSince = time.Time{}
		if b.pressureSince.IsZero() {
			b.pressureSince = now
		}
		if lvl < b.maxLevel && now.Sub(b.pressureSince) >= b.cfg.Hold {
			b.level.Store(int64(lvl + 1))
			b.pressureSince = now // a further step needs a fresh Hold of pressure
		}
	case queueWait <= b.cfg.RecoverThreshold:
		b.pressureSince = time.Time{}
		if b.calmSince.IsZero() {
			b.calmSince = now
		}
		if lvl > 0 && now.Sub(b.calmSince) >= b.cfg.Hold {
			b.level.Store(int64(lvl - 1))
			b.calmSince = now
		}
	default:
		// Hysteresis band: neither pressure nor calm. Both windows
		// reset so a step needs a fresh sustained signal.
		b.pressureSince, b.calmSince = time.Time{}, time.Time{}
	}
}
