//go:build !amd64

package capsnet

// packed is never set off amd64: the routing kernels always take their
// Go loops.
var packed = false

func predTile4(u, w, o []float32, ustride, ostride, nh, cl, ch int) {
	panic("capsnet: packed kernel called off amd64")
}

func predTile1(u, w, o []float32, nh, cl, ch int) {
	panic("capsnet: packed kernel called off amd64")
}

func aggregateRows(s, c, u []float32, nl, nj, ch, cstride, ustride int) {
	panic("capsnet: packed kernel called off amd64")
}
