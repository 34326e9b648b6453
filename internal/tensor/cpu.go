package tensor

// The packed micro-kernels of this package (conv_amd64.s) and of
// internal/capsnet (kernels_amd64.s) share one feature detect, made
// once at init from CPUID and XGETBV (cpu_amd64.s; off amd64 it is
// never set): packed is 0 where there is no packed path, packedAVX2
// where the CPU and the OS support AVX2, packedFMA where they support
// FMA too — the condition under which package math takes the FMA
// branch of its exp kernel, which capsnet's packed exp mirrors — and
// packedAVX512 where they support AVX512F and save ZMM state as well.
// The only writer after init is internal/packedtest, for tests.
const (
	packedAVX2 = 1 + iota
	packedFMA
	packedAVX512
)

// Packed reports whether the AVX2 micro-kernels may run.
func Packed() bool { return packed >= packedAVX2 }

// PackedFMA reports whether a kernel that needs FMA as well may run.
func PackedFMA() bool { return packed >= packedFMA }

// packed512 reports whether Conv2DInto's AVX-512 tile may run.
func packed512() bool { return packed >= packedAVX512 }
