package tensor

// Conv2DInto's AVX2 micro-kernels (conv_amd64.s), taken where Packed
// reports them usable.

//go:noescape
func convTile8x8(acc, w, cols []float32, n, kk, kc, lanes int, first bool)

//go:noescape
func convTile1x8(acc, w, cols []float32, n, kc, lanes int, first bool)

//go:noescape
func packedMulAddPeak(steps int)
