package testutil

import (
	"testing"
	"unsafe"
)

// TestGuardedTailFaultsOnePastTheEnd: every element of the slice is
// readable and writable, and a load of the element after the last one
// faults at the guard page's first byte, so the kernels' guard-page
// tests would see a demand load past an operand.
func TestGuardedTailFaultsOnePastTheEnd(t *testing.T) {
	for _, n := range []int{1, 7, 1024, 1025} {
		xs := GuardedTail(t, n)
		if len(xs) != n {
			t.Fatalf("n=%d: len %d", n, len(xs))
		}
		if _, faulted := Faults(func() {
			for i := range xs {
				xs[i] = float32(i)
			}
		}); faulted {
			t.Fatalf("n=%d: writing the slice faulted", n)
		}
		past := unsafe.Add(unsafe.Pointer(&xs[n-1]), 4)
		var sink float32
		addr, faulted := Faults(func() { sink = *(*float32)(past) })
		if !faulted {
			t.Fatalf("n=%d: reading one element past the end read %v, want a fault", n, sink)
		}
		if addr != uintptr(past) {
			t.Fatalf("n=%d: fault at %#x, want %#x", n, addr, uintptr(past))
		}
	}
}

// TestFaultsPassesOtherPanicsOn: a panic that is not a memory fault is
// not swallowed.
func TestFaultsPassesOtherPanicsOn(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	Faults(func() { panic("boom") })
	t.Fatal("Faults returned")
}
