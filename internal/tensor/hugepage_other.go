//go:build !linux

package tensor

// allocHugePaged has no huge-page path off linux: AllocHugePaged makes
// a plain slice.
func allocHugePaged(int) []float32 { return nil }

// backedHuge reads 0 off linux.
func backedHuge(lo, hi uintptr) uint64 { return 0 }
