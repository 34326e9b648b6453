package tensor

import (
	"fmt"
	"unsafe"
)

// hugePageSize is the transparent huge page AllocHugePaged aligns to:
// 2 MB on x86-64, and on arm64 with 4 KB base pages.
const hugePageSize = 2 << 20

// AllocHugePaged returns n zeroed float32s, len and cap n, for a
// long-lived operand that a pass streams whole, such as a capsule
// layer's W. On linux, from 2 MB up, it takes an ordinary Go heap
// allocation 2 MB longer than asked, returns the window of it that
// starts on a 2 MB boundary, and advises the whole 2 MB pages inside
// that window MADV_HUGEPAGE and then MADV_DONTNEED before anything
// writes them. The first write then faults each in as one 2 MB page
// wherever the kernel's transparent huge pages allow; the DONTNEED
// drops pages the heap had already faulted at 4 KB, which the advice
// alone would leave as they are. A cold stream over the operand then
// needs one TLB entry per 2 MB instead of one per 4 KB (the address
// mapping half of the paper's contribution 3, on a CPU). Under 2 MB,
// off linux and on any madvise error it is a plain make. The values
// are the same either way, and either way the collector owns the
// memory: nothing is unmapped and there is no finalizer.
func AllocHugePaged(n int) []float32 {
	if n < 0 {
		panic(fmt.Sprintf("tensor: negative allocation %d", n))
	}
	if n*4 >= hugePageSize {
		if s := allocHugePaged(n); s != nil {
			return s
		}
	}
	return make([]float32, n)
}

// HugePageBytes reports how many bytes of the whole 2 MB pages inside s
// the kernel backs with huge pages now, read back from the process's
// memory map (/proc/self/smaps): for each mapping that overlaps them,
// the smaller of the mapping's AnonHugePages and the overlap. It reads
// 0 off linux, with transparent huge pages off, and for an s that holds
// no whole 2 MB page.
func HugePageBytes(s []float32) uint64 {
	lo, hi := hugePages(s)
	if lo >= hi {
		return 0
	}
	return backedHuge(lo, hi)
}

// hugePages returns the address range [lo, hi) of the whole 2 MB pages
// inside s; lo >= hi when there are none.
func hugePages(s []float32) (lo, hi uintptr) {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	lo = (start + hugePageSize - 1) &^ (hugePageSize - 1)
	hi = (start + uintptr(len(s))*4) &^ (hugePageSize - 1)
	return lo, hi
}
