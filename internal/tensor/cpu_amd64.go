package tensor

var packed = cpuPacked()

//go:noescape
func cpuPacked() uint8
