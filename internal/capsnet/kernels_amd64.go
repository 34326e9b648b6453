package capsnet

// packed selects the AVX2 micro-kernels of Eq. 1 and Eq. 2
// (kernels_amd64.s). It is set once, here, from what the CPU and the
// OS support.
var packed = cpuHasAVX2()

//go:noescape
func cpuHasAVX2() bool

//go:noescape
func predTile4(u, w, o []float32, ustride, ostride, nh, cl, ch int)

//go:noescape
func predTile1(u, w, o []float32, nh, cl, ch int)

//go:noescape
func aggregateRows(s, c, u []float32, nl, nj, ch, cstride, ustride int)
