package capsnet

import (
	"fmt"
	"testing"

	"pimcapsnet/internal/tensor"
	"pimcapsnet/internal/testutil"
)

// TestPackedKernelsReadNothingPastTheirOperands runs each packed kernel
// of Eqs. 1, 2 and 4 over the last rows of operands that end flush
// against a PROT_NONE page (testutil.GuardedTail), with a fault turned
// into a failure. The sentinel margins of the bit-identity tables
// catch a write out of bounds; this catches a read. The kernels
// prefetch PFDIST bytes ahead of their streams, into the guard page and
// past it: a prefetch never faults, a demand load there does.
func TestPackedKernelsReadNothingPastTheirOperands(t *testing.T) {
	if !tensor.Packed() {
		t.Skip("this CPU has no packed path")
	}
	const nl, cl, nh = 3, 8, 10
	fill := func(xs []float32) []float32 {
		for i := range xs {
			xs[i] = float32(i%7+1) / 8 // no zero: aggregateRows reads every û row
		}
		return xs
	}
	operand := func(n int) []float32 { return fill(testutil.GuardedTail(t, n)) }
	run := func(name string, kernel func()) {
		t.Helper()
		if addr, faulted := testutil.Faults(kernel); faulted {
			t.Fatalf("%s touched %#x, past its operands", name, addr)
		}
	}
	for _, ch := range []int{8, 16, 24} {
		w := operand(nh * cl * ch)
		ustride, ostride := nl*cl, nl*nh*ch
		u4, o4 := operand(3*ustride+cl), operand(3*ostride+nh*ch)
		run(fmt.Sprintf("predTile4 ch=%d", ch), func() { predTile4(u4, w, o4, ustride, ostride, nh, cl, ch) })
		u1, o1 := operand(cl), operand(nh*ch)
		run(fmt.Sprintf("predTile1 ch=%d", ch), func() { predTile1(u1, w, o1, nh, cl, ch) })
		// All capsules (a whole row) and the last four of them (a chunk
		// that ends on a row's last capsule): the final row of c and û
		// ends at the guard either way.
		for _, nj := range []int{nh, 4} {
			s, c, u := operand(nj*ch), operand((nl-1)*nh+nj), operand(((nl-1)*nh+nj)*ch)
			run(fmt.Sprintf("aggregateRows ch=%d nj=%d", ch, nj), func() { aggregateRows(s, c, u, nl, nj, ch, nh, nh*ch) })
		}
	}
	for _, ch := range []int{4, 8, 16, 24} {
		const groups = 6 // 48 pairs: the replica wraps after 40
		vt := testutil.GuardedTail(t, agreeReplicaLen(nh, ch))
		fillAgreeReplica(vt, fill(make([]float32, nh*ch)), nh, ch)
		b, u := operand(8*groups), operand(8*groups*ch)
		run(fmt.Sprintf("agreePairs8 ch=%d", ch), func() { agreePairs8(b, u, vt, ch) })
	}
}
