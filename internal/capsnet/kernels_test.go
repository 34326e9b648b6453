package capsnet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pimcapsnet/internal/tensor"
)

// naivePredictionVectors is Eq. 1 as this package computed it before
// the register-tiled kernel: one output row at a time, accumulated
// into a cleared destination with d ascending, skipping the terms
// whose u entry is exactly zero. It is the reference the tiled kernel
// must match bit for bit.
func naivePredictionVectors(ud, wd, od []float32, nb, nl, cl, nh, ch, lo, hi int) {
	for i := lo; i < hi; i++ {
		for k := 0; k < nb; k++ {
			clear(od[(k*nl+i)*nh*ch : (k*nl+i+1)*nh*ch])
		}
		wbase := i * nh * cl * ch
		for j := 0; j < nh; j++ {
			wm := wd[wbase+j*cl*ch : wbase+(j+1)*cl*ch]
			for d := 0; d < cl; d++ {
				wrow := wm[d*ch : (d+1)*ch]
				for k := 0; k < nb; k++ {
					uvd := ud[(k*nl+i)*cl+d]
					if uvd == 0 {
						continue
					}
					ov := od[((k*nl+i)*nh+j)*ch : ((k*nl+i)*nh+j+1)*ch]
					for e := 0; e < ch; e++ {
						ov[e] += uvd * wrow[e]
					}
				}
			}
		}
	}
}

func sameBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// sameBitsOrNaN is sameBits with any NaN equal to any other.
func sameBitsOrNaN(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(math.IsNaN(float64(a[i])) && math.IsNaN(float64(b[i]))) {
			return i, false
		}
	}
	return 0, true
}

// TestPredictionVectorsRangeTileEdgesBitIdentical walks every way an
// output element can fall in predictionVectorsRange's tiles, Go and
// packed — samples in pairs, fours and left over, output widths that
// are and are not whole vectors, ranges that start past capsule 0 —
// plus the zero-entry fallback, against the naive loop. The
// destination starts as NaN inside the range and as a sentinel outside
// it, and u and W are carved out of NaN margins: the kernel must store
// every element of the range without reading it, read nothing that
// reaches a sum from outside u and W, and touch nothing else.
// TestIdentitySuiteOnGoKernels runs it again with the packed path off.
func TestPredictionVectorsRangeTileEdgesBitIdentical(t *testing.T) {
	const nl = 5
	const sentinel = float32(-12345)
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	ranges := [][2]int{{0, nl}, {1, 4}, {2, 3}, {3, nl}}
	for _, nb := range []int{1, 2, 3, 4, 5, 7, 8} {
		for _, cl := range []int{1, 8} {
			for _, ch := range []int{1, 3, 4, 8, 16, 17, 24} {
				for _, nh := range []int{1, 10} {
					rng := rand.New(rand.NewSource(int64(nb*1000 + cl*100 + ch*10 + nh)))
					ud, udOK := guarded(nb*nl*cl, nan)
					wd, wdOK := guarded(nl*nh*cl*ch, nan)
					for i := range ud {
						ud[i] = rng.Float32() - 0.5
					}
					for i := range wd {
						wd[i] = rng.Float32() - 0.5
					}
					// Capsules 1–3 have a zero in the first, the last and
					// every entry of their u row in all samples, and the
					// weights those entries would multiply are +Inf:
					// 0·Inf is NaN, so the output is finite only if the
					// term is skipped rather than added. Capsule 4 has
					// the zero in every other sample only, so a pair of
					// samples splits between the tile and the fallback.
					zero := func(i, k, d int) { ud[(k*nl+i)*cl+d] = 0 }
					every := make([]int, cl)
					for d := range every {
						every[d] = d
					}
					for i, ds := range [][]int{1: {0}, 2: {cl - 1}, 3: every} {
						for _, d := range ds {
							for k := 0; k < nb; k++ {
								zero(i, k, d)
							}
							for j := 0; j < nh; j++ {
								for e := 0; e < ch; e++ {
									wd[((i*nh+j)*cl+d)*ch+e] = inf
								}
							}
						}
					}
					for k := 0; k < nb; k += 2 {
						zero(4, k, 0)
					}
					for _, r := range ranges {
						lo, hi := r[0], r[1]
						name := fmt.Sprintf("nb%d_cl%d_ch%d_nh%d_%d-%d", nb, cl, ch, nh, lo, hi)
						want := make([]float32, nb*nl*nh*ch)
						got := make([]float32, len(want))
						for k := 0; k < nb; k++ {
							for i := 0; i < nl; i++ {
								fill := sentinel
								if i >= lo && i < hi {
									fill = nan
								}
								row := got[(k*nl+i)*nh*ch : (k*nl+i+1)*nh*ch]
								for x := range row {
									row[x] = fill
									want[(k*nl+i)*nh*ch+x] = sentinel
								}
							}
						}
						naivePredictionVectors(ud, wd, want, nb, nl, cl, nh, ch, lo, hi)
						predictionVectorsRange(ud, wd, got, nb, nl, cl, nh, ch, lo, hi)
						if at, ok := sameBits(got, want); !ok {
							t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", name, at,
								got[at], math.Float32bits(got[at]), want[at], math.Float32bits(want[at]))
						}
						for x, v := range got {
							if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
								t.Fatalf("%s: element %d is %v, want finite", name, x, v)
							}
						}
						if !udOK() || !wdOK() {
							t.Fatalf("%s: wrote outside u (%v) or W (%v)", name, udOK(), wdOK())
						}
					}
				}
			}
		}
	}
}

// TestFirstIterationCoefficientsAreSoftmaxOfZeros: iteration 0's C is
// one softmaxRows row replicated, so it must carry whatever bits that
// function gives all-zero logits under each math (PE math without
// recovery does not produce 1/H exactly).
func TestFirstIterationCoefficientsAreSoftmaxOfZeros(t *testing.T) {
	const nb, nl, nh, ch = 3, 7, 10, 4
	rng := rand.New(rand.NewSource(4))
	preds := tensor.New(nb, nl, nh, ch)
	for i, pd := 0, preds.Data(); i < len(pd); i++ {
		pd[i] = rng.Float32() - 0.5
	}
	for _, m := range []struct {
		name string
		ops  RoutingMath
	}{
		{"exact", ExactMath{}},
		{"pe", NewPEMath()},
		{"pe_norecovery", NewPEMathNoRecovery()},
	} {
		want := make([]float32, nb*nl*nh)
		softmaxRows(m.ops, want, make([]float32, nb*nl*nh), nb*nl, nh)
		for _, mode := range []RoutingMode{RoutePerSample, RouteBatchShared} {
			res := DynamicRoutingMode(preds, 1, m.ops, mode)
			if at, ok := sameBits(res.C.Data(), want); !ok {
				t.Errorf("%s/%v: C[%d] = %v, want %v", m.name, mode, at, res.C.Data()[at], want[at])
			}
		}
	}
}

// TestChunkedSoftmaxBitIdenticalToSerial compares the coefficients
// and logits of a three-iteration run — whose iterations 1 and 2 take
// the chunked softmax — with a serial restatement of the routing loop,
// on both entry points and every worker count that splits the rows
// differently.
func TestChunkedSoftmaxBitIdenticalToSerial(t *testing.T) {
	cfg := TinyConfig(3)
	const nb = 3
	for _, mode := range []RoutingMode{RoutePerSample, RouteBatchShared} {
		for _, procs := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%v/procs%d", mode, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				net, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer net.Close()
				net.Digit.Mode = mode
				rng := rand.New(rand.NewSource(11))
				imgs := make([][]float32, nb)
				for k := range imgs {
					imgs[k] = make([]float32, net.ImageLen())
					for i := range imgs[k] {
						imgs[k][i] = rng.Float32()
					}
				}
				out := net.ForwardBatch(imgs, ExactMath{})
				defer out.Release()
				preds := PredictionVectors(out.Primary, net.Digit.Weights)
				wantC, wantB, _ := serialRouting(preds, net.Digit.Iterations, ExactMath{}, mode)
				pub := DynamicRoutingMode(preds, net.Digit.Iterations, ExactMath{}, mode)
				for _, got := range []struct {
					name string
					c, b []float32
				}{
					{"arena", out.Routing.C.Data(), out.Routing.B.Data()},
					{"public", pub.C.Data(), pub.B.Data()},
				} {
					if at, ok := sameBits(got.c, wantC); !ok {
						t.Errorf("%s: C[%d] = %v, want %v", got.name, at, got.c[at], wantC[at])
					}
					if at, ok := sameBits(got.b, wantB); !ok {
						t.Errorf("%s: B[%d] = %v, want %v", got.name, at, got.b[at], wantB[at])
					}
				}
			})
		}
	}
}

// serialRouting is the routing loop with nothing chunked and no
// first-iteration shortcut: softmaxRows over every row of every
// iteration, one kernel call per stage — the aggregate one
// aggregateRange over the whole nb × nh rectangle.
func serialRouting(preds *tensor.Tensor, iterations int, mathOps RoutingMath, mode RoutingMode) (c, b, v []float32) {
	nb, nl, nh, ch := preds.Dim(0), preds.Dim(1), preds.Dim(2), preds.Dim(3)
	pd := preds.Data()
	b = make([]float32, nb*nl*nh)
	c = make([]float32, nb*nl*nh)
	v = make([]float32, nb*nh*ch)
	s := make([]float32, nb*nh*ch)
	rows, bstride := nb*nl, nl*nh
	if mode == RouteBatchShared {
		rows, bstride = nl, 0
	}
	for it := 0; it < iterations; it++ {
		softmaxRows(mathOps, c, b, rows, nh)
		if mode == RouteBatchShared {
			for k := 1; k < nb; k++ {
				copy(c[k*nl*nh:(k+1)*nl*nh], c[:nl*nh])
			}
		}
		clear(s)
		aggregateRange(mathOps, pd, c, s, v, nl, nh, ch, 0, nb, 0, nh)
		if it == iterations-1 {
			break
		}
		agreementRange(pd, v, b, bstride, nl, nh, ch, 0, nb, 0, nh)
	}
	if mode == RouteBatchShared {
		for k := 1; k < nb; k++ {
			copy(b[k*nl*nh:(k+1)*nl*nh], b[:nl*nh])
		}
	}
	return c, b, v
}

// BenchmarkPredictionVectorsRange times Eq. 1 alone on the digit-layer
// shapes of the repository benchmark's three models (bench/workloads.go;
// H=10, 8→16) at batch 1 and 8, into a reused buffer, and reports
// GMAC/s so a run reads directly against the benchmark's
// host.fma_gmacs scalar ceiling and capsnet.pred_gmacs.
func BenchmarkPredictionVectorsRange(b *testing.B) {
	const cl, nh, ch = 8, 10, 16
	for _, sh := range []struct {
		name string
		nl   int
	}{
		{"rp3872", 3872},
		{"mn1", 1152},
		{"cv288", 288},
	} {
		for _, nb := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/nb%d", sh.name, nb), func(b *testing.B) {
				rng := rand.New(rand.NewSource(5))
				ud := make([]float32, nb*sh.nl*cl)
				wd := make([]float32, sh.nl*nh*cl*ch)
				for _, xs := range [][]float32{ud, wd} {
					for i := range xs {
						xs[i] = rng.Float32() - 0.5
					}
				}
				od := make([]float32, nb*sh.nl*nh*ch)
				run := func() { predictionVectorsRange(ud, wd, od, nb, sh.nl, cl, nh, ch, 0, sh.nl) }
				if a := testing.AllocsPerRun(1, run); a != 0 {
					b.Fatalf("predictionVectorsRange allocates %v times per call, want 0", a)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				macs := float64(nb) * float64(sh.nl) * float64(nh*cl*ch)
				b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}

// BenchmarkAggregateRange times Eq. 2+3 alone — one routing
// iteration's aggregate over a batch of 8, all capsules, one core — on
// the same three digit-layer shapes, and reports GMAC/s next to the
// GB/s of û it streams: the stage reads every prediction vector once
// for one multiply-add each, so memory bounds it, not
// BenchmarkPackedMulAddPeak — and at rp3872's 19.8 MB the latency of
// each line more than the bandwidth, which is why aggregateRows
// prefetches (PFDIST in kernels_amd64.s). internal/tensor's
// BenchmarkStreamRead is the ceiling to read the GB/s against.
func BenchmarkAggregateRange(b *testing.B) {
	const nb, nh, ch = 8, 10, 16
	for _, sh := range []struct {
		name string
		nl   int
	}{
		{"rp3872", 3872},
		{"mn1", 1152},
		{"cv288", 288},
	} {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			pd := make([]float32, nb*sh.nl*nh*ch)
			cd := make([]float32, nb*sh.nl*nh)
			for i := range pd {
				pd[i] = rng.Float32() - 0.5
			}
			for i := range cd {
				cd[i] = rng.Float32() / nh
			}
			sd := make([]float32, nb*nh*ch)
			vd := make([]float32, nb*nh*ch)
			run := func() {
				clear(sd)
				aggregateRange(ExactMath{}, pd, cd, sd, vd, sh.nl, nh, ch, 0, nb, 0, nh)
			}
			if a := testing.AllocsPerRun(1, run); a != 0 {
				b.Fatalf("aggregateRange allocates %v times per call, want 0", a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			macs := float64(len(pd))
			b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			b.ReportMetric(4*macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}

// BenchmarkSoftmaxRows times Eq. 5 alone with ExactMath — one routing
// iteration's softmax over every (sample, low-level capsule) row of
// rp3872's digit layer, in place as the routing loop runs it, one core —
// and reports ns per logit. The logits are agreement-sized (|b| < 2),
// so every group of the packed exponential stays on its fast path, as
// on the serving workloads.
func BenchmarkSoftmaxRows(b *testing.B) {
	const nl, nh = 3872, 10
	for _, nb := range []int{1, 8} {
		b.Run(fmt.Sprintf("rp3872/nb%d", nb), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			bd := make([]float32, nb*nl*nh)
			for i := range bd {
				bd[i] = 4*rng.Float32() - 2
			}
			cd := make([]float32, len(bd))
			run := func() { softmaxRows(ExactMath{}, cd, bd, nb*nl, nh) }
			if a := testing.AllocsPerRun(1, run); a != 0 {
				b.Fatalf("softmaxRows allocates %v times per call, want 0", a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(len(bd)), "ns/element")
		})
	}
}

// BenchmarkAgreementRange times per-sample Eq. 4 alone — one routing
// iteration's agreement over all rows of rp3872's digit layer, one
// core — and reports GMAC/s next to the GB/s of û it streams: like the
// aggregate it reads every prediction vector once for one multiply-add
// each, bound by memory latency more than bandwidth at batch 8, so
// agreePairs8 prefetches too.
func BenchmarkAgreementRange(b *testing.B) {
	const nl, nh, ch = 3872, 10, 16
	for _, nb := range []int{1, 8} {
		b.Run(fmt.Sprintf("rp3872/nb%d", nb), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			pd := make([]float32, nb*nl*nh*ch)
			vd := make([]float32, nb*nh*ch)
			for _, xs := range [][]float32{pd, vd} {
				for i := range xs {
					xs[i] = rng.Float32() - 0.5
				}
			}
			bd := make([]float32, nb*nl*nh)
			vt := make([]float32, agreeReplicaLen(nh, ch))
			run := func() {
				clear(bd)
				agreementRows(pd, vd, bd, vt, nl, nh, ch, 0, nb*nl)
			}
			if a := testing.AllocsPerRun(1, run); a != 0 {
				b.Fatalf("agreementRows allocates %v times per call, want 0", a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			macs := float64(len(pd))
			b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			b.ReportMetric(4*macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}

// TestRegroupSquashBitIdenticalToSquashInto holds the PrimaryCaps
// epilogue, with the exact scale inlined, to the squashInto with
// ExactMath it replaces: several position counts, rows wider than the
// positions (as in a batch-wide raw output), and capsules that are all
// zero, too small for their squares to register, huge enough to
// overflow them, or carry a NaN or an Inf. A NaN matches a NaN.
func TestRegroupSquashBitIdenticalToSquashInto(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	specials := []float32{0, float32(math.Copysign(0, -1)), 1e-30, -3e-25, 3e38, float32(math.NaN()), float32(math.Inf(-1))}
	for _, hw := range []int{1, 3, 4, 5, 36, 121} {
		for _, capsDim := range []int{1, 4, 8} {
			for _, ld := range []int{hw, 3*hw + 2} {
				const channels = 3
				raw := make([]float32, channels*capsDim*ld)
				for i := range raw {
					raw[i] = 2*rng.Float32() - 1
					if rng.Intn(9) == 0 {
						raw[i] = specials[rng.Intn(len(specials))]
					}
				}
				for d := 0; d < capsDim; d++ { // capsule (0, 0) all zero, (0, 1) underflows
					raw[d*ld] = 0
					if hw > 1 {
						raw[d*ld+1] = 1e-30
					}
				}
				got := make([]float32, channels*hw*capsDim)
				regroupSquash(got, raw, channels, capsDim, hw, ld)
				for c := 0; c < channels; c++ {
					for p := 0; p < hw; p++ {
						want := make([]float32, capsDim)
						for d := range want {
							want[d] = raw[(c*capsDim+d)*ld+p]
						}
						squashInto(ExactMath{}, want, want)
						for d, x := range want {
							g := got[(c*hw+p)*capsDim+d]
							if math.Float32bits(g) != math.Float32bits(x) && !(g != g && x != x) {
								t.Fatalf("hw=%d capsDim=%d ld=%d: capsule (%d, %d)[%d] = %x, want %x",
									hw, capsDim, ld, c, p, d, math.Float32bits(g), math.Float32bits(x))
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkRegroupSquash times the PrimaryCaps epilogue alone as
// primRange runs it — every sample of a batch-wide raw output, rows
// nb·hw floats apart — on rp3872 at serve_sat's batch of 8 and mn1 at
// offline_mn1's 2, one core, and reports ns per capsule.
func BenchmarkRegroupSquash(b *testing.B) {
	for _, sh := range []struct {
		name                  string
		channels, capsDim, hw int
		nb                    int
	}{
		{"rp3872", 32, 8, 121, 8},
		{"mn1", 32, 8, 36, 2},
	} {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			ld := sh.nb * sh.hw
			raw := make([]float32, sh.channels*sh.capsDim*ld)
			for i := range raw {
				raw[i] = rng.Float32() - 0.5
			}
			caps := make([]float32, sh.nb*sh.channels*sh.hw*sh.capsDim)
			per := sh.channels * sh.hw * sh.capsDim
			run := func() {
				for k := 0; k < sh.nb; k++ {
					regroupSquash(caps[k*per:(k+1)*per], raw[k*sh.hw:], sh.channels, sh.capsDim, sh.hw, ld)
				}
			}
			if a := testing.AllocsPerRun(1, run); a != 0 {
				b.Fatalf("regroupSquash allocates %v times per call, want 0", a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(sh.nb*sh.channels*sh.hw), "ns/capsule")
		})
	}
}
