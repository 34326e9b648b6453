// Package obs is the timerleak goldens' stand-in for the real
// internal/obs clock: an interface whose NewTimer the analyzer treats
// like time.NewTimer.
package obs

import "time"

// Clock is the one time source of the serving tiers.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
}

// Timer is a Clock's one-shot timer.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration)
}

// Wall is the runtime clock.
var Wall Clock
