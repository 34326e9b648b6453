package tensor

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// allocHugePaged is AllocHugePaged's linux path for n*4 >= 2 MB; it
// returns nil when either madvise fails.
func allocHugePaged(n int) []float32 {
	buf := make([]float32, n+hugePageSize/4)
	lo, _ := hugePages(buf)
	off := int(lo-uintptr(unsafe.Pointer(unsafe.SliceData(buf)))) / 4
	s := buf[off : off+n : off+n]
	whole := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), n*4&^(hugePageSize-1))
	if syscall.Madvise(whole, syscall.MADV_HUGEPAGE) != nil || syscall.Madvise(whole, syscall.MADV_DONTNEED) != nil {
		return nil
	}
	return s
}

// backedHuge sums, over the mappings /proc/self/smaps lists that
// overlap [lo, hi), the smaller of each one's AnonHugePages and its
// overlap. A mapping is exactly the advised range unless the kernel
// merged it with a neighbour of the same flags (another operand's
// range), so the sum is exact in the usual case and bounded by the
// range in every case. An unreadable map reads 0.
func backedHuge(lo, hi uintptr) uint64 {
	smaps, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		return 0
	}
	var total, overlap uint64
	for _, line := range bytes.Split(smaps, []byte("\n")) {
		fields := bytes.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if from, to, ok := bytes.Cut(fields[0], []byte("-")); ok {
			a, errA := strconv.ParseUint(string(from), 16, 64)
			b, errB := strconv.ParseUint(string(to), 16, 64)
			if errA == nil && errB == nil {
				overlap = 0
				if a < uint64(hi) && b > uint64(lo) {
					overlap = min(b, uint64(hi)) - max(a, uint64(lo))
				}
				continue
			}
		}
		if string(fields[0]) == "AnonHugePages:" && overlap > 0 {
			if kb, err := strconv.ParseUint(string(fields[1]), 10, 64); err == nil {
				total += min(kb<<10, overlap)
			}
		}
	}
	return total
}
