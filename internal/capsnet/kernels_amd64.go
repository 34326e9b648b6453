package capsnet

// The packed micro-kernels of kernels_amd64.s, taken where
// internal/tensor's feature detect reports them usable.

//go:noescape
func predTile4(u, w, o []float32, ustride, ostride, nh, cl, ch int)

//go:noescape
func predTile1(u, w, o []float32, nh, cl, ch int)

//go:noescape
func aggregateRows(s, c, u []float32, nl, nj, ch, cstride, ustride int)

//go:noescape
func agreePairs8(b, u, vt []float32, ch int)

//go:noescape
func softmaxShift8(out, b []float32, rowOf []int32, nh int)

//go:noescape
func expPacked8(x []float32) int

//go:noescape
func softmaxScale8(out []float32, rowOf []int32, nh int)
