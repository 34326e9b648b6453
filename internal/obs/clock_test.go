package obs

import (
	"sync"
	"testing"
	"time"
)

// ticked reports the tick waiting on t's channel, if any, without
// blocking.
func ticked(t Timer) (time.Time, bool) {
	select {
	case at := <-t.C():
		return at, true
	default:
		return time.Time{}, false
	}
}

// TestManualClockFiresInDeadlineOrderNeverEarly: each timer fires at its
// own deadline, with the clock reading that deadline, and not a
// nanosecond before.
func TestManualClockFiresInDeadlineOrderNeverEarly(t *testing.T) {
	clk := newManualClock()
	t0 := clk.Now()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	timers := []Timer{clk.NewTimer(ms(30)), clk.NewTimer(ms(10)), clk.NewTimer(ms(20))}

	if n := clk.Advance(ms(10) - 1); n != 0 {
		t.Fatalf("%d timers fired before the first deadline", n)
	}
	if n := clk.Advance(1); n != 1 {
		t.Fatalf("Advance to 10ms fired %d timers, want 1", n)
	}
	if n := clk.Advance(ms(25)); n != 2 {
		t.Fatalf("Advance to 35ms fired %d timers, want 2", n)
	}
	for i, want := range []time.Duration{ms(30), ms(10), ms(20)} {
		at, ok := ticked(timers[i])
		if !ok || !at.Equal(t0.Add(want)) {
			t.Errorf("timer %d ticked %v (%v), want its deadline t0+%v", i, at.Sub(t0), ok, want)
		}
	}
	if got := clk.Now().Sub(t0); got != ms(35) {
		t.Fatalf("clock reads t0+%v after advancing 35ms", got)
	}
}

// TestManualClockStopResetMatchTimer pins Stop's and Reset's contract to
// time.Timer's: Stop reports whether it disarmed the timer, and a Reset
// after an unread tick discards that tick.
func TestManualClockStopResetMatchTimer(t *testing.T) {
	clk := newManualClock()
	tm := clk.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer = false")
	}
	if tm.Stop() {
		t.Fatal("second Stop = true")
	}
	if clk.Advance(time.Hour) != 0 {
		t.Fatal("a stopped timer fired")
	}

	tm.Reset(time.Second)
	clk.Advance(time.Second) // fires; the tick stays unread
	if tm.Stop() {
		t.Fatal("Stop on a fired timer = true")
	}
	tm.Reset(time.Second)
	if _, ok := ticked(tm); ok {
		t.Fatal("stale tick survived Reset")
	}
	clk.Advance(time.Second)
	if at, ok := ticked(tm); !ok || !at.Equal(clk.Now()) {
		t.Fatalf("re-armed timer ticked %v (%v), want %v", at, ok, clk.Now())
	}

	if _, ok := ticked(clk.NewTimer(0)); !ok {
		t.Fatal("NewTimer(0) did not fire at once")
	}
}

// TestWallTimerResetDropsStaleTick: the wall timer's Reset is drain-safe
// too, so a tick that fired unread never reaches a receiver after Reset.
func TestWallTimerResetDropsStaleTick(t *testing.T) {
	tm := Wall.NewTimer(0)
	time.Sleep(time.Millisecond) // usually long enough to fire unread; the check holds either way
	tm.Reset(time.Hour)
	if _, ok := ticked(tm); ok {
		t.Fatal("stale tick survived Reset")
	}
	if !tm.Stop() {
		t.Fatal("Stop on an armed wall timer = false")
	}
}

// TestWallTimerAllocatesOnlyItsTimer: the interface wrapper is
// pointer-shaped, so a Wall timer costs what a time.Timer costs.
func TestWallTimerAllocatesOnlyItsTimer(t *testing.T) {
	bare := int(testing.AllocsPerRun(100, func() { time.NewTimer(time.Hour).Stop() }))
	wrapped := int(testing.AllocsPerRun(100, func() { Wall.NewTimer(time.Hour).Stop() }))
	if wrapped != bare {
		t.Fatalf("Wall.NewTimer allocates %v per timer, time.NewTimer %v", wrapped, bare)
	}
}

// TestManualClockBlockUntil returns once the awaited timers are armed.
func TestManualClockBlockUntil(t *testing.T) {
	clk := newManualClock()
	armed := make(chan Timer, 2)
	go func() {
		for i := 0; i < 2; i++ {
			armed <- clk.NewTimer(time.Second)
		}
	}()
	clk.BlockUntil(2)
	if n := clk.Advance(time.Second); n != 2 {
		t.Fatalf("fired %d timers, want the 2 BlockUntil waited for", n)
	}
	<-armed
	<-armed
}

// TestManualClockConcurrent hammers Now, NewTimer, Reset, Stop and
// Advance from several goroutines; run it under -race.
func TestManualClockConcurrent(t *testing.T) {
	clk := newManualClock()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tm := clk.NewTimer(time.Millisecond)
			defer tm.Stop()
			for i := 0; i < 200; i++ {
				_ = clk.Now()
				tm.Reset(time.Duration(i%5) * time.Millisecond)
				ticked(tm)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		clk.Advance(time.Millisecond)
	}
	wg.Wait()
}
