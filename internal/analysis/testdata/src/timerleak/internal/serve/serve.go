// Package serve is the timerleak golden for the strict rule (inside
// the long-lived concurrency packages time.After never appears at all)
// and the one-clock rule (a serving tier reads time only through its
// obs.Clock).
package serve

import (
	"context"
	"time"

	"timerleak/internal/obs"
)

// WaitOnce would be fine elsewhere; here even a one-shot time.After
// pins its timer for the full duration when the select exits early.
func WaitOnce(ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-time.After(time.Minute): // want `time\.After starts a timer nothing can stop`
		return 0
	}
}

// Bounded is the replacement the analyzer points at: a clock timer with
// a deferred Stop. Clean.
func Bounded(clock obs.Clock, ch chan int) int {
	t := clock.NewTimer(time.Minute)
	defer t.Stop()
	select {
	case v := <-ch:
		return v
	case <-t.C():
		return 0
	}
}

// Stamp reads the runtime clock behind the component's back.
func Stamp() (time.Time, time.Duration) {
	start := time.Now()             // want `time\.Now bypasses the clock`
	return start, time.Since(start) // want `time\.Since bypasses the clock`
}

// Stalled arms a runtime timer and sleeps on the runtime clock.
func Stalled() {
	t := time.NewTimer(time.Second) // want `time\.NewTimer bypasses the clock`
	defer t.Stop()
	time.Sleep(time.Millisecond) // want `time\.Sleep bypasses the clock`
	<-t.C
}

// Injectable hands the runtime clock around as func values: each is a
// second time source.
type Injectable struct {
	now   func() time.Time
	sleep func(time.Duration)
}

func NewInjectable() *Injectable {
	return &Injectable{now: time.Now, sleep: time.Sleep} // want `time\.Now bypasses the clock` `time\.Sleep bypasses the clock`
}

// OnClock is the same work on the component's clock: clean.
func OnClock(clock obs.Clock) time.Duration {
	start := clock.Now()
	return clock.Now().Sub(start)
}

// ArmAtDeadline converts a context deadline, which lives on the
// runtime clock, into a clock timer: the one justified wall read.
func ArmAtDeadline(ctx context.Context, t obs.Timer) {
	if dl, ok := ctx.Deadline(); ok {
		//lint:ignore pimcaps/timerleak context deadlines run on the runtime clock; this converts one into a clock timer
		t.Reset(time.Until(dl))
	}
}
