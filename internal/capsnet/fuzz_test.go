package capsnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"pimcapsnet/internal/packedtest"
)

// FuzzLoad feeds mutated checkpoint bytes into Load. The invariant is
// crash-freedom: Load either returns a usable *Network or an error —
// it must never panic, allocate absurdly from a crafted config, or
// index out of range on inconsistent slice counts (the pre-fix DecB
// bug). CI runs this for a 10s smoke on every push; the seed corpus
// alone runs under plain `go test`.
func FuzzLoad(f *testing.F) {
	net, err := New(TinyConfig(2))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	dec, err := New(func() Config { c := TinyConfig(2); c.WithDecoder = true; return c }())
	if err != nil {
		f.Fatal(err)
	}
	var decBuf bytes.Buffer
	if err := dec.Save(&decBuf); err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add(decBuf.Bytes())
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("PIMCAPS\x01 definitely not gob"))
	f.Add([]byte("not a checkpoint at all"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Load(bytes.NewReader(data))
		if err == nil && n == nil {
			t.Fatal("Load returned neither a network nor an error")
		}
		if err != nil && n != nil {
			t.Fatal("Load returned both a network and an error")
		}
	})
}

// fuzzFloats reads data as little-endian float32 bit patterns, so the
// fuzzer reaches every NaN payload, both zeros, the denormals and the
// infinities directly. Where two NaNs of different payloads meet, x86
// returns the first operand's, and the Go loops do not fix which that
// is (the fuzzing build's instrumentation alone reorders their adds),
// so the differential targets demand equal bits of every result that
// is not a NaN and a NaN of any payload where the Go loop has one.
func fuzzFloats(data []byte) []float32 {
	vals := make([]float32, len(data)/4)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return vals
}

// FuzzSoftmaxRowsPacked is the differential target of Eq. 5's packed
// body: for logits of any bit pattern, any width the body takes (and
// one past it), separate or in place, softmaxRows with ExactMath must
// give the bits of its Go loop and leave the margins around c alone.
// Short inputs are cycled up to three groups of eight rows and a tail.
func FuzzSoftmaxRowsPacked(f *testing.F) {
	f.Add(uint8(9), false, []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0xc0, 0xdb, 0x0f, 0x49, 0x40})
	f.Add(uint8(2), true, []byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0xff, 1, 0, 0xc0, 0x7f, 0, 0, 0, 0x80})
	f.Add(uint8(15), false, []byte{0, 0, 0x2f, 0xc4, 0, 0x20, 0x2f, 0xc4, 1, 0, 0, 0, 0, 0, 0xd0, 0xc2})
	f.Fuzz(func(t *testing.T, width uint8, inPlace bool, data []byte) {
		vals := fuzzFloats(data)
		if len(vals) == 0 {
			t.Skip("no logits")
		}
		nh := 1 + int(width)%(softmaxMaxH+1)
		nl := min(max(len(vals)/nh, 27), 1024)
		b := make([]float32, nl*nh)
		for i := range b {
			b[i] = vals[i%len(vals)]
		}
		run := func(on bool) (c []float32, intact func() bool) {
			c, intact = guarded(len(b), -12345)
			src := b
			if inPlace {
				copy(c, b)
				src = c
			}
			packedtest.With(t, on, func() { softmaxRows(ExactMath{}, c, src, nl, nh) })
			return c, intact
		}
		want, _ := run(false)
		got, intact := run(true)
		if at, ok := sameBitsOrNaN(got, want); !ok {
			t.Fatalf("nh=%d nl=%d inPlace=%v: c[%d,%d] = %x, want %x", nh, nl, inPlace, at/nh, at%nh,
				math.Float32bits(got[at]), math.Float32bits(want[at]))
		}
		if !intact() {
			t.Fatalf("nh=%d nl=%d inPlace=%v: wrote outside c", nh, nl, inPlace)
		}
	})
}

// FuzzAgreementPacked is the differential target of Eq. 4's packed
// body: for û, v and logits of any bit pattern, any capsule count and
// width the body takes and any row range of a two-sample batch,
// agreementRows must give the bits of the Go loop, change no logit
// outside the range and leave every margin alone.
func FuzzAgreementPacked(f *testing.F) {
	f.Add(uint8(9), uint8(3), uint8(0), uint8(42), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0xbf, 0xdb, 0x0f, 0x49, 0x40})
	f.Add(uint8(2), uint8(0), uint8(5), uint8(30), []byte{0, 0, 0x80, 0x7f, 1, 0, 0xc0, 0x7f, 2, 0, 0xc0, 0xff, 0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Add(uint8(15), uint8(5), uint8(20), uint8(22), []byte{0, 0, 0x80, 0xff, 0, 0, 0x80, 0x7f, 0xff, 0xff, 0x7f, 0x7f})
	f.Fuzz(func(t *testing.T, caps, width, from, to uint8, data []byte) {
		vals := fuzzFloats(data)
		if len(vals) == 0 {
			t.Skip("no operands")
		}
		const nb, nl = 2, 21
		nh, ch := 1+int(caps)%20, 4*(1+int(width)%6)
		lo, hi := int(from)%(nb*nl+1), int(to)%(nb*nl+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		nan := float32(math.NaN())
		pd, pdOK := guarded(nb*nl*nh*ch, nan)
		vd, vdOK := guarded(nb*nh*ch, nan)
		a := agreementCase{nb, nl, nh, ch, pd, vd, make([]float32, nb*nl*nh), func() bool { return pdOK() && vdOK() }}
		for i := range a.pd {
			a.pd[i] = vals[i%len(vals)]
		}
		for i := range a.vd {
			a.vd[i] = vals[(7*i+3)%len(vals)]
		}
		for i := range a.b0 {
			a.b0[i] = vals[(13*i+5)%len(vals)]
		}
		want, _ := a.run(t, false, lo, hi)
		got, intact := a.run(t, true, lo, hi)
		if at, ok := sameBitsOrNaN(got, want); !ok {
			t.Fatalf("nh=%d ch=%d rows [%d,%d): b[%d,%d] = %x, want %x", nh, ch, lo, hi, at/nh, at%nh,
				math.Float32bits(got[at]), math.Float32bits(want[at]))
		}
		if _, ok := sameBits(got[:lo*nh], a.b0[:lo*nh]); !ok {
			t.Fatalf("nh=%d ch=%d rows [%d,%d): a logit below the range changed", nh, ch, lo, hi)
		}
		if _, ok := sameBits(got[hi*nh:], a.b0[hi*nh:]); !ok {
			t.Fatalf("nh=%d ch=%d rows [%d,%d): a logit above the range changed", nh, ch, lo, hi)
		}
		if !intact() {
			t.Fatalf("nh=%d ch=%d rows [%d,%d): wrote outside an operand", nh, ch, lo, hi)
		}
	})
}

// FuzzPredictionVectorsPacked is the differential target of Eq. 1's
// packed tiles: for u and W of any bit pattern, 1–9 samples (whole
// groups of four for predTile4, the rest for predTile1), widths of one
// to three vectors and any capsule range, predictionVectorsRange must
// give the bits of its Go loop and leave every margin alone. A u row
// holding a zero takes the hasZero detour on both paths, which must
// keep a +Inf or NaN weight facing that zero out of the sum.
func FuzzPredictionVectorsPacked(f *testing.F) {
	f.Add(uint8(7), uint8(1), uint8(2), uint8(0), uint8(3), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0xbf, 0xdb, 0x0f, 0x49, 0x40})
	f.Add(uint8(4), uint8(2), uint8(0), uint8(1), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x3f, 0, 0, 0x80, 0x7f, 0, 0, 0, 0x80})
	f.Add(uint8(8), uint8(5), uint8(1), uint8(0), uint8(2), []byte{1, 0, 0xc0, 0x7f, 2, 0, 0xc0, 0xff, 1, 0, 0, 0, 0xff, 0xff, 0x7f, 0x7f})
	f.Fuzz(func(t *testing.T, samples, shape, width, from, to uint8, data []byte) {
		vals := fuzzFloats(data)
		if len(vals) == 0 {
			t.Skip("no operands")
		}
		const nl = 3
		nb, cl, nh, ch := 1+int(samples)%9, 1+int(shape)%9, 1+int(shape/9)%4, 8*(1+int(width)%3)
		lo, hi := int(from)%(nl+1), int(to)%(nl+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		nan := float32(math.NaN())
		ud, udOK := guarded(nb*nl*cl, nan)
		wd, wdOK := guarded(nl*nh*cl*ch, nan)
		for i := range ud {
			ud[i] = vals[i%len(vals)]
		}
		for i := range wd {
			wd[i] = vals[(7*i+3)%len(vals)]
		}
		run := func(on bool) (od []float32, intact func() bool) {
			od, intact = guarded(nb*nl*nh*ch, -12345)
			packedtest.With(t, on, func() { predictionVectorsRange(ud, wd, od, nb, nl, cl, nh, ch, lo, hi) })
			return od, intact
		}
		want, _ := run(false)
		got, intact := run(true)
		if at, ok := sameBitsOrNaN(got, want); !ok {
			t.Fatalf("nb=%d cl=%d nh=%d ch=%d capsules [%d,%d): û[%d] = %x, want %x", nb, cl, nh, ch, lo, hi, at,
				math.Float32bits(got[at]), math.Float32bits(want[at]))
		}
		if !intact() || !udOK() || !wdOK() {
			t.Fatalf("nb=%d cl=%d nh=%d ch=%d capsules [%d,%d): wrote outside an operand", nb, cl, nh, ch, lo, hi)
		}
	})
}

// FuzzAggregateRowsPacked is the differential target of Eq. 2's packed
// body: for û and c of any bit pattern — c_ij of either zero, whose
// term both paths skip even against a NaN or infinite û row, NaN
// payloads, infinities, denormals — any capsule count and width and
// any rectangle of a two-sample batch, aggregateRange must give s and
// v the bits of its Go loop, leave the entries outside the rectangle
// alone and write nothing outside an operand.
func FuzzAggregateRowsPacked(f *testing.F) {
	f.Add(uint8(9), uint8(1), uint8(0), uint8(2), uint8(0), uint8(10), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0xbf, 0xdb, 0x0f, 0x49, 0x40})
	f.Add(uint8(4), uint8(0), uint8(0), uint8(1), uint8(3), uint8(7), []byte{0, 0, 0, 0x80, 0, 0, 0x80, 0x7f, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 1, 0, 0xc0, 0x7f})
	f.Add(uint8(2), uint8(2), uint8(1), uint8(2), uint8(1), uint8(3), []byte{1, 0, 0, 0, 2, 0, 0xc0, 0xff, 0, 0, 0x80, 0x3e, 0xff, 0xff, 0x7f, 0x7f})
	f.Fuzz(func(t *testing.T, caps, width, k0, k1, j0, j1 uint8, data []byte) {
		vals := fuzzFloats(data)
		if len(vals) == 0 {
			t.Skip("no operands")
		}
		const nb, nl = 2, 9
		nh, ch := 1+int(caps)%12, 8*(1+int(width)%3)
		klo, khi := int(k0)%(nb+1), int(k1)%(nb+1)
		if klo > khi {
			klo, khi = khi, klo
		}
		jlo, jhi := int(j0)%(nh+1), int(j1)%(nh+1)
		if jlo > jhi {
			jlo, jhi = jhi, jlo
		}
		nan := float32(math.NaN())
		pd, pdOK := guarded(nb*nl*nh*ch, nan)
		cd, cdOK := guarded(nb*nl*nh, nan)
		for i := range pd {
			pd[i] = vals[i%len(vals)]
		}
		for i := range cd {
			cd[i] = vals[(7*i+3)%len(vals)]
		}
		const sentinel = float32(-12345)
		run := func(on bool) (s, v []float32, intact func() bool) {
			s, sOK := guarded(nb*nh*ch, sentinel)
			v, vOK := guarded(nb*nh*ch, sentinel)
			for k := klo; k < khi; k++ {
				clear(s[(k*nh+jlo)*ch : (k*nh+jhi)*ch])
			}
			packedtest.With(t, on, func() { aggregateRange(ExactMath{}, pd, cd, s, v, nl, nh, ch, klo, khi, jlo, jhi) })
			return s, v, func() bool { return sOK() && vOK() }
		}
		wantS, wantV, _ := run(false)
		gotS, gotV, intact := run(true)
		name := fmt.Sprintf("nh=%d ch=%d [%d,%d)×[%d,%d)", nh, ch, klo, khi, jlo, jhi)
		if at, ok := sameBitsOrNaN(gotS, wantS); !ok {
			t.Fatalf("%s: s[%d] = %x, want %x", name, at, math.Float32bits(gotS[at]), math.Float32bits(wantS[at]))
		}
		if at, ok := sameBitsOrNaN(gotV, wantV); !ok {
			t.Fatalf("%s: v[%d] = %x, want %x", name, at, math.Float32bits(gotV[at]), math.Float32bits(wantV[at]))
		}
		if !intact() || !pdOK() || !cdOK() {
			t.Fatalf("%s: wrote outside an operand", name)
		}
		for k := 0; k < nb; k++ {
			for j := 0; j < nh; j++ {
				if k >= klo && k < khi && j >= jlo && j < jhi {
					continue
				}
				for e := (k*nh + j) * ch; e < (k*nh+j+1)*ch; e++ {
					if gotS[e] != sentinel || gotV[e] != sentinel {
						t.Fatalf("%s: s, v of sample %d capsule %d, outside the rectangle, changed", name, k, j)
					}
				}
			}
		}
	})
}
