// Package packedtest is the test-side switch of the packed
// micro-kernels: the one writer, after init, of internal/tensor's
// feature detect, which every packed path of internal/tensor and
// internal/capsnet reads. The detect is unexported and reached here by
// go:linkname, so production code has no way to flip it. Tests that use
// With or At must not run in parallel.
package packedtest

import (
	"testing"
	_ "unsafe" // go:linkname

	_ "pimcapsnet/internal/tensor" // owns the detect; initialised first
)

// Level is one rung of internal/tensor's feature detect (cpu.go), with
// the same values: a level enables its own packed bodies and every one
// below it.
type Level uint8

const (
	Off    Level = iota // the Go kernels only
	AVX2                // tensor.Packed: every AVX2 body
	FMA                 // tensor.PackedFMA: Eq. 5's packed exp as well
	AVX512              // Conv2DInto's ZMM tile as well
)

// PackedLevels is every level above Off, lowest first, whether this CPU
// has it or not: a test that loops over them with At skips the ones it
// lacks, so a run shows which bodies it did not reach.
func PackedLevels() []Level { return []Level{AVX2, FMA, AVX512} }

func (l Level) String() string { return [...]string{"off", "avx2", "fma", "avx512"}[l] }

//go:linkname packed pimcapsnet/internal/tensor.packed
var packed uint8

// detected is what init found, whatever With and At have done since.
var detected = Level(packed)

// Detected is the highest level this CPU has; Off where it has no
// packed path and every test already runs on the Go kernels.
func Detected() Level { return detected }

// At runs fn with the detect pinned to l, which must be at or below the
// detected level: the test is skipped where this CPU lacks l.
func At(t testing.TB, l Level, fn func()) {
	t.Helper()
	if l > detected {
		t.Skipf("this CPU has no %v path", l)
	}
	defer func(was uint8) { packed = was }(packed)
	packed = uint8(l)
	fn()
}

// With runs fn with every packed micro-kernel of the forward pass as
// detected (on) or switched off, and skips the test when asked for a
// packed path the CPU lacks.
func With(t testing.TB, on bool, fn func()) {
	t.Helper()
	l := Off
	if on {
		l = max(detected, AVX2)
	}
	At(t, l, fn)
}
