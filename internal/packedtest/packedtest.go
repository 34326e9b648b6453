// Package packedtest is the test-side switch of the packed
// micro-kernels: the one writer, after init, of internal/tensor's
// feature detect, which every packed path of internal/tensor and
// internal/capsnet reads. The detect is unexported and reached here by
// go:linkname, so production code has no way to flip it. Tests that use
// With must not run in parallel.
package packedtest

import (
	"testing"
	_ "unsafe" // go:linkname

	_ "pimcapsnet/internal/tensor" // owns the detect; initialised first
)

//go:linkname packed pimcapsnet/internal/tensor.packed
var packed uint8

// detected is what init found, whatever With has done since.
var detected = packed

// Detected reports whether this CPU has a packed path at all; where it
// has none, every test already runs on the Go kernels.
func Detected() bool { return detected != 0 }

// With runs fn with every packed micro-kernel of the forward pass as
// detected (on) or switched off, and skips the test when asked for a
// packed path the CPU lacks.
func With(t testing.TB, on bool, fn func()) {
	t.Helper()
	if on && !Detected() {
		t.Skip("this CPU has no packed path")
	}
	defer func(was uint8) { packed = was }(packed)
	packed = 0
	if on {
		packed = detected
	}
	fn()
}
