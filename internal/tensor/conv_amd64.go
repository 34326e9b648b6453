package tensor

// Conv2DInto's micro-kernels (conv_amd64.s): the AVX2 ones where Packed
// reports them usable, the AVX-512 one where packed512 does.

//go:noescape
func convTile8x8(acc, w, cols []float32, n, kk, kc, lanes int, first bool)

//go:noescape
func convTile1x8(acc, w, cols []float32, n, kc, lanes int, first bool)

//go:noescape
func convTile8x32(acc, w, cols []float32, n, kk, kc int, first bool)

//go:noescape
func lowerGather8(cols, src, pos []float32, taps []int32, n int)

//go:noescape
func packedMulAddPeak(steps int)

//go:noescape
func packedMulAddPeak512(steps int)

//go:noescape
func streamRead(x []float32) float32

//go:noescape
func streamReadPrefetch(x []float32) float32
