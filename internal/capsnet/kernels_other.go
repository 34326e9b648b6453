//go:build !amd64

package capsnet

// Off amd64 internal/tensor's feature detect is never set, so the
// routing kernels always take their Go loops and none of these is
// called.

func predTile4(u, w, o []float32, ustride, ostride, nh, cl, ch int) {
	panic("capsnet: packed kernel called off amd64")
}

func predTile1(u, w, o []float32, nh, cl, ch int) {
	panic("capsnet: packed kernel called off amd64")
}

func aggregateRows(s, c, u []float32, nl, nj, ch, cstride, ustride int) {
	panic("capsnet: packed kernel called off amd64")
}

func agreePairs8(b, u, vt []float32, ch int) {
	panic("capsnet: packed kernel called off amd64")
}

func softmaxShift8(out, b []float32, rowOf []int32, nh int) {
	panic("capsnet: packed kernel called off amd64")
}

func expPacked8(x []float32) int {
	panic("capsnet: packed kernel called off amd64")
}

func softmaxScale8(out []float32, rowOf []int32, nh int) {
	panic("capsnet: packed kernel called off amd64")
}
