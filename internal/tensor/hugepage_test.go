package tensor

import (
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// allocatedBytes runs fn and returns the heap bytes it allocated.
func allocatedBytes(fn func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// TestAllocHugePaged checks the allocator's contract at and above
// 2 MB: the asked length with cap == len, zeroed contents, and on linux
// a slice that starts on a 2 MB boundary, so its whole 2 MB pages are
// the first len*4 rounded down to 2 MB, out of a heap allocation 2 MB
// longer than asked.
func TestAllocHugePaged(t *testing.T) {
	for _, n := range []int{hugePageSize / 4, hugePageSize/4*5/2 + 3, 5 * hugePageSize / 4} {
		var s []float32
		got := allocatedBytes(func() { s = AllocHugePaged(n) })
		if len(s) != n || cap(s) != n {
			t.Fatalf("n=%d: len %d cap %d, want both %d", n, len(s), cap(s), n)
		}
		for i, x := range s {
			if math.Float32bits(x) != 0 {
				t.Fatalf("n=%d: s[%d] = %v, want +0", n, i, x)
			}
		}
		if runtime.GOOS != "linux" {
			continue
		}
		lo, hi := hugePages(s)
		if start := uintptr(unsafe.Pointer(unsafe.SliceData(s))); lo != start || hi-lo != uintptr(n*4&^(hugePageSize-1)) {
			t.Errorf("n=%d: whole huge pages [%#x, %#x) for a slice at %#x, want %d bytes from its start", n, lo, hi, start, n*4&^(hugePageSize-1))
		}
		if want := uint64(n*4 + hugePageSize); got < want {
			t.Errorf("n=%d: allocated %d bytes, want at least %d (the 2 MB alignment pad)", n, got, want)
		}
		for i := range s {
			s[i] = float32(i) // the writes fault in the advised pages
		}
		if math.Float32bits(s[n-1]) != math.Float32bits(float32(n-1)) {
			t.Fatalf("n=%d: the last element did not keep its write", n)
		}
	}
}

// TestAllocHugePagedFallsBackBelow2MB checks that a region too small
// to hold a whole 2 MB page is a plain make: no alignment pad, and
// zeroed with cap == len.
func TestAllocHugePagedFallsBackBelow2MB(t *testing.T) {
	for _, n := range []int{0, 1, 1000, hugePageSize/4 - 1} {
		var s []float32
		got := allocatedBytes(func() { s = AllocHugePaged(n) })
		if len(s) != n || cap(s) != n {
			t.Fatalf("n=%d: len %d cap %d, want both %d", n, len(s), cap(s), n)
		}
		for i, x := range s {
			if math.Float32bits(x) != 0 {
				t.Fatalf("n=%d: s[%d] = %v, want +0", n, i, x)
			}
		}
		if pad := uint64(hugePageSize / 2); got > uint64(n*4)+pad {
			t.Errorf("n=%d: allocated %d bytes for %d, want a plain make", n, got, n*4)
		}
		if b := HugePageBytes(s); b != 0 {
			t.Errorf("n=%d: HugePageBytes %d for a region under 2 MB, want 0", n, b)
		}
	}
}
