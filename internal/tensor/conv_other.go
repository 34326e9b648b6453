//go:build !amd64

package tensor

// packed (cpu.go) is never set off amd64: Conv2DInto always takes the Go
// tile.
var packed uint8

func convTile8x8(acc, w, cols []float32, n, kk, kc, lanes int, first bool) {
	panic("tensor: packed convolution kernel called off amd64")
}

func convTile1x8(acc, w, cols []float32, n, kc, lanes int, first bool) {
	panic("tensor: packed convolution kernel called off amd64")
}

func convTile8x32(acc, w, cols []float32, n, kk, kc int, first bool) {
	panic("tensor: packed convolution kernel called off amd64")
}

func lowerGather8(cols, src, pos []float32, taps []int32, n int) {
	panic("tensor: packed lowering called off amd64")
}
