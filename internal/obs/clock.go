package obs

import (
	"sync"
	"time"
)

// Clock is the one source of time for the serving tiers: serve,
// cluster and this package read the time and arm every timer through
// it. Wall is the production clock; ManualClock moves only when a test
// advances it.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
}

// Timer is a one-shot timer armed by a Clock. It behaves like
// time.Timer, except that Reset is drain-safe: a tick left over from an
// earlier arming is discarded, so a receive after Reset(d) sees only the
// new expiry.
type Timer interface {
	C() <-chan time.Time
	// Stop disarms the timer, reporting whether it was armed.
	Stop() bool
	// Reset re-arms the timer to fire d from now.
	Reset(d time.Duration)
}

// Wall is the runtime's clock. Every constructor taking a Clock uses it
// when given nil.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// NewTimer allocates nothing beyond the time.Timer: wallTimer is
// pointer-shaped, so it fits in the interface as is.
func (wallClock) NewTimer(d time.Duration) Timer { return wallTimer{time.NewTimer(d)} }

type wallTimer struct{ t *time.Timer }

func (w wallTimer) C() <-chan time.Time { return w.t.C }
func (w wallTimer) Stop() bool          { return w.t.Stop() }

// Reset stops, drains and re-arms: under go.mod's go 1.22 timer
// semantics a timer that fired unread still holds its tick.
func (w wallTimer) Reset(d time.Duration) {
	if !w.t.Stop() {
		select {
		case <-w.t.C:
		default:
		}
	}
	w.t.Reset(d)
}

// ManualClock is a Clock that moves only on Advance. Timers fire in
// deadline order, each at its deadline, never early. Safe for
// concurrent use.
type ManualClock struct {
	mu sync.Mutex
	//pimcaps:guardedby mu
	now time.Time
	// armed holds the armed timers in arming order; a timer's own
	// fields are guarded by this same mu.
	//pimcaps:guardedby mu
	armed []*manualTimer
	// changed is broadcast whenever a timer is armed, for BlockUntil.
	changed *sync.Cond
}

// NewManualClock returns a ManualClock reading t0.
func NewManualClock(t0 time.Time) *ManualClock {
	c := &ManualClock{now: t0}
	c.changed = sync.NewCond(&c.mu)
	return c
}

// Now returns the clock's current reading.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// NewTimer arms a timer to fire d after the current reading; d ≤ 0
// fires at once.
func (c *ManualClock) NewTimer(d time.Duration) Timer {
	t := &manualTimer{c: c, ch: make(chan time.Time, 1)}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armLocked(t, d)
	return t
}

// Advance moves the clock forward by d, firing every timer due by then
// in deadline order (ties in arming order) with the clock reading each
// timer's deadline as it fires. It returns how many timers fired.
func (c *ManualClock) Advance(d time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	end := c.now.Add(d)
	fired := 0
	for {
		next := -1
		for i, t := range c.armed {
			if !t.at.After(end) && (next < 0 || t.at.Before(c.armed[next].at)) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t := c.armed[next]
		c.armed = append(c.armed[:next], c.armed[next+1:]...)
		c.now = t.at
		t.fireLocked()
		fired++
	}
	c.now = end
	return fired
}

// BlockUntil returns once at least n timers are armed.
func (c *ManualClock) BlockUntil(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.armed) < n {
		c.changed.Wait()
	}
}

func (c *ManualClock) armLocked(t *manualTimer, d time.Duration) {
	t.at = c.now.Add(d)
	if d <= 0 {
		t.fireLocked()
		return
	}
	c.armed = append(c.armed, t)
	c.changed.Broadcast()
}

// disarmLocked removes t from the armed set, reporting whether it was
// there.
func (c *ManualClock) disarmLocked(t *manualTimer) bool {
	for i, a := range c.armed {
		if a == t {
			c.armed = append(c.armed[:i], c.armed[i+1:]...)
			return true
		}
	}
	return false
}

// manualTimer is a ManualClock's Timer; at is guarded by c.mu.
type manualTimer struct {
	c  *ManualClock
	ch chan time.Time
	at time.Time
}

func (t *manualTimer) C() <-chan time.Time { return t.ch }

func (t *manualTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.c.disarmLocked(t)
}

func (t *manualTimer) Reset(d time.Duration) {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	t.c.disarmLocked(t)
	select {
	case <-t.ch:
	default:
	}
	t.c.armLocked(t, d)
}

// fireLocked delivers the tick the way a time.Timer does: into a
// one-slot channel, dropped if the last tick is still unread.
func (t *manualTimer) fireLocked() {
	select {
	case t.ch <- t.at:
	default:
	}
}
