package tensor

import (
	"fmt"
	"testing"

	"pimcapsnet/internal/testutil"
)

// TestConvTilesReadNothingPastTheirOperands runs each packed conv tile
// over the last tile of a block, its accumulators, weights and cols
// ending flush against a PROT_NONE page (testutil.GuardedTail), with a
// fault turned into a failure: packed_test.go's sentinel margins catch
// a write out of bounds, this catches a read. Each tile runs at the
// level it needs; the masked lanes of the YMM tiles are never loaded.
func TestConvTilesReadNothingPastTheirOperands(t *testing.T) {
	if !Packed() {
		t.Skip("this CPU has no packed path")
	}
	const n, kk = 36, 300
	operand := func(m int) []float32 {
		xs := testutil.GuardedTail(t, m)
		for i := range xs {
			xs[i] = float32(i%5) - 2
		}
		return xs
	}
	run := func(name string, kernel func()) {
		t.Helper()
		if addr, faulted := testutil.Faults(kernel); faulted {
			t.Fatalf("%s touched %#x, past its operands", name, addr)
		}
	}
	for _, kc := range []int{convKC, kk - convKC} {
		for _, first := range []bool{true, false} {
			lanes := n % 8
			acc, w, cols := operand(7*n+lanes), operand(7*kk+kc), operand((kc-1)*n+lanes)
			run(fmt.Sprintf("convTile8x8 kc=%d first=%v", kc, first), func() { convTile8x8(acc, w, cols, n, kk, kc, lanes, first) })
			acc1, w1 := operand(lanes), operand(kc)
			run(fmt.Sprintf("convTile1x8 kc=%d first=%v", kc, first), func() { convTile1x8(acc1, w1, cols, n, kc, lanes, first) })
			if !packed512() {
				continue
			}
			acc32, cols32 := operand(7*n+32), operand((kc-1)*n+32)
			run(fmt.Sprintf("convTile8x32 kc=%d first=%v", kc, first), func() { convTile8x32(acc32, w, cols32, n, kk, kc, first) })
		}
	}
}

// TestConvGathersReadNothingPastTheirOperands runs the packed path with
// every operand flush against a PROT_NONE page: the input, whose last
// float the last tap of the last window reads (the shapes fit the
// kernel exactly), and cols, whose position table the gather loads its
// offsets from. A VGATHERDPS reads computed addresses, so a wrong
// offset or an unmasked tail lane shows here as a fault even when it
// lands on memory a sentinel margin would not watch.
func TestConvGathersReadNothingPastTheirOperands(t *testing.T) {
	if !Packed() {
		t.Skip("this CPU has no packed path")
	}
	operand := func(m int) []float32 {
		xs := testutil.GuardedTail(t, m)
		for i := range xs {
			xs[i] = float32(i%7) - 3
		}
		return xs
	}
	for _, k := range []int{1, 3, 9} {
		for _, stride := range []int{1, 2, 3} {
			for nb := 1; nb <= 3; nb++ {
				spec := ConvSpec{Cin: 3, Cout: 9, K: k, Stride: stride}
				h, w := 4*stride+k, 2*stride+k // 5×3 positions an image: every tail length of the batch
				oh, ow := spec.OutSize(h, w)
				in := operand(nb * spec.Cin * h * w)
				wt, bias := operand(spec.Cout*spec.Cin*k*k), operand(spec.Cout)
				dst, cols := operand(spec.Cout*nb*oh*ow), operand(ConvColsLen(spec, h, w, nb))
				if addr, faulted := testutil.Faults(func() { Conv2DInto(dst, cols, in, wt, bias, spec, h, w, nb) }); faulted {
					t.Fatalf("K=%d stride=%d nb=%d: Conv2DInto touched %#x, past its operands", k, stride, nb, addr)
				}
			}
		}
	}
}
