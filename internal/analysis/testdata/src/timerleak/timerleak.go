// Package timerleak is the timerleak golden for the tree-wide rules:
// no time.After in loops, no time.Tick ever, and every
// NewTimer/NewTicker reaches Stop on all paths.
package timerleak

import (
	"time"

	"timerleak/internal/obs"
)

// WaitOnce is a one-shot time.After outside the concurrency packages:
// clean.
func WaitOnce(ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-time.After(time.Second):
		return 0
	}
}

// PollLoop re-arms time.After every iteration: one live runtime timer
// per lap.
func PollLoop(ch chan int, stop chan struct{}) {
	for {
		select {
		case <-ch:
		case <-time.After(time.Second): // want `time\.After inside a loop`
		case <-stop:
			return
		}
	}
}

// TickLeak uses the constructor that can never be stopped.
func TickLeak() <-chan time.Time {
	return time.Tick(time.Second) // want `time\.Tick leaks its ticker by design`
}

// Metronome stops its ticker via defer: clean.
func Metronome(stop chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-stop:
			return
		}
	}
}

// Reused is the drain-safe reuse idiom: clean.
func Reused(waits []time.Duration, ch chan int) {
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for _, d := range waits {
		timer.Reset(d)
		select {
		case <-ch:
		case <-timer.C:
		}
	}
}

// NeverStopped arms a ticker nothing stops.
func NeverStopped(ch chan int) {
	t := time.NewTicker(time.Second) // want `ticker from time\.NewTicker never reaches Stop\(\)`
	for range ch {
		<-t.C
	}
}

// Dropped discards the only handle.
func Dropped() {
	time.NewTicker(time.Second) // want `time\.NewTicker result is dropped`
}

// Blank discards it by name.
func Blank() {
	_ = time.NewTimer(time.Second) // want `timer from time\.NewTimer is discarded`
}

// EarlyReturn can exit before the deferred Stop is installed.
func EarlyReturn(ready bool) {
	t := time.NewTimer(time.Second)
	if !ready {
		return // want `return may abandon the running timer`
	}
	defer t.Stop()
	<-t.C
}

// ClockNeverStopped arms a clock timer nothing stops: obs.Clock timers
// carry the same obligation as time.NewTimer.
func ClockNeverStopped(clock obs.Clock) {
	t := clock.NewTimer(time.Second) // want `timer from \(timerleak/internal/obs\.Clock\)\.NewTimer never reaches Stop\(\)`
	<-t.C()
}

// ClockDropped discards the only handle.
func ClockDropped(clock obs.Clock) {
	clock.NewTimer(time.Second) // want `NewTimer result is dropped`
}

// Handoff escapes the timer to the caller, who inherits the Stop
// obligation: clean.
func Handoff() *time.Timer {
	t := time.NewTimer(time.Second)
	return t
}

// Justified documents a deliberate leak with a suppression.
func Justified(ch chan int) {
	for range ch {
		//lint:ignore pimcaps/timerleak one-shot helper exercised only in short-lived CLI runs
		<-time.After(time.Millisecond)
	}
}
