package testutil

import (
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// GuardedTail returns n float32s that end flush against a page mapped
// PROT_NONE, so a demand load or store of even one element past the
// slice faults. The packed kernels' tests place operands with it: a
// sentinel margin catches a write out of bounds but not a read, and
// this catches both. The mapping is released when t ends.
func GuardedTail(t testing.TB, n int) []float32 {
	t.Helper()
	page := os.Getpagesize()
	data := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mapping %d bytes: %v", data+page, err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Fatalf("protecting the guard page: %v", err)
	}
	all := unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(mem))), data/4)
	return all[data/4-n:]
}

// Faults runs fn with runtime/debug.SetPanicOnFault on and reports the
// address of the memory fault that stopped it, if one did. Any other
// panic is passed on.
func Faults(fn func()) (addr uintptr, faulted bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			addr, faulted = e.Addr(), true
		}
	}()
	fn()
	return 0, false
}
