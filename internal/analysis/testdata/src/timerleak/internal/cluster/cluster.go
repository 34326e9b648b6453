// Package cluster is the timerleak golden for the one-clock rule in the
// router tier.
package cluster

import (
	"time"

	"timerleak/internal/obs"
)

// Poll ticks and schedules on the runtime clock.
func Poll(stop chan struct{}, probe func()) {
	t := time.NewTicker(time.Second) // want `time\.NewTicker bypasses the clock`
	defer t.Stop()
	time.AfterFunc(time.Second, probe) // want `time\.AfterFunc bypasses the clock`
	for {
		select {
		case <-t.C:
			probe()
		case <-stop:
			return
		}
	}
}

// PollOnClock re-arms one clock timer in place: clean.
func PollOnClock(clock obs.Clock, stop chan struct{}, probe func()) {
	t := clock.NewTimer(time.Second)
	defer t.Stop()
	for {
		select {
		case <-t.C():
			probe()
			t.Reset(time.Second)
		case <-stop:
			return
		}
	}
}

// Backoff leaks its clock timer on the early return, exactly as it
// would a time.NewTimer.
func Backoff(clock obs.Clock, give bool) {
	t := clock.NewTimer(time.Second)
	if give {
		return // want `return may abandon the running timer`
	}
	defer t.Stop()
	<-t.C()
}

// HedgeAt arms a hedge at a context's deadline, which lives on the
// runtime clock: the suppression silences exactly this finding.
func HedgeAt(dl time.Time, t obs.Timer) {
	//lint:ignore pimcaps/timerleak dl is a context deadline on the runtime clock; this converts it into a clock timer
	t.Reset(time.Until(dl))
}
