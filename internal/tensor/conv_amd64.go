package tensor

// packed selects Conv2DInto's AVX2 micro-kernels (conv_amd64.s). It is
// set once, here, from what the CPU and the OS support.
var packed = cpuHasAVX2()

//go:noescape
func cpuHasAVX2() bool

//go:noescape
func convTile8x8(acc, w, cols []float32, n, kk, kc, lanes int, first bool)

//go:noescape
func convTile1x8(acc, w, cols []float32, n, kc, lanes int, first bool)

//go:noescape
func packedMulAddPeak(steps int)
