package tensor

// Packed512 and ConvKC expose the AVX-512 predicate and the reduction
// block to the external tests of packed_test.go.
var Packed512 = packed512

const ConvKC = convKC
