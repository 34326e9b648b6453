package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"pimcapsnet/internal/capsnet"
)

// The three models, frozen here so the measuring stick does not move
// when a constructor's defaults do.
var models = map[string]capsnet.Config{
	// Table 1's Caps-MN1 geometry (capsnet.MNISTConfig at the seed
	// commit). On a CPU PrimaryCaps' 9×9 convolution over 256 channels
	// is ~95% of a forward pass.
	"mn1": {
		InputChannels: 1, InputH: 28, InputW: 28,
		ConvChannels: 256, ConvKernel: 9, ConvStride: 1,
		PrimaryChannels: 32, PrimaryDim: 8, PrimaryKernel: 9, PrimaryStride: 2,
		Classes: 10, DigitDim: 16, RoutingIterations: 3,
		WithDecoder: true, Seed: 1,
	},
	// BenchmarkServeThroughput's net: a light conv front end feeding
	// L=3872 primary capsules, so û (2.4 MB/sample) and routing are
	// ~90% of a forward pass, the paper's GPU-baseline regime.
	"rp3872": {
		InputChannels: 1, InputH: 28, InputW: 28,
		ConvChannels: 8, ConvKernel: 5, ConvStride: 1,
		PrimaryChannels: 32, PrimaryDim: 8, PrimaryKernel: 3, PrimaryStride: 2,
		Classes: 10, DigitDim: 16, RoutingIterations: 3,
		Seed: 1,
	},
	// Caps-MN1 at a quarter of its width: conv 64×9×9, PrimaryCaps 8×8-D
	// 9×9/2 → L=288. Its 1.3 MB of PrimaryCaps weights stay in L2 and a
	// single-threaded forward pass takes 11 ms, of which û and routing
	// are under 10%: the forward pass a replica runs behind the router,
	// where the workload is there for the hop and not for the kernels.
	// Single-threaded rp3872 streams 20 MB of W per image and on a shared
	// host flips between 12 and 20 ms per pass for minutes at a time.
	"cv288": {
		InputChannels: 1, InputH: 28, InputW: 28,
		ConvChannels: 64, ConvKernel: 9, ConvStride: 1,
		PrimaryChannels: 8, PrimaryDim: 8, PrimaryKernel: 9, PrimaryStride: 2,
		Classes: 10, DigitDim: 16, RoutingIterations: 3,
		Seed: 1,
	},
}

type workloadKind int

const (
	kindOffline workloadKind = iota // in-process Network.ForwardBatch
	kindServe                       // loopback HTTP → in-process serve.Server
	kindRouter                      // loopback HTTP → cluster.Dispatcher → capsnet-serve subprocesses
)

// workloadSpec is one workload's frozen constants. They were calibrated
// on the seed commit (see README.md) and are never recomputed at run
// time: a limit that followed the measurement could not be missed.
type workloadSpec struct {
	name  string
	kind  workloadKind
	model string
	// Closed loop: clients callers each wait for their reply. Open loop
	// (rate > 0): paced arrivals at rate req/s, sent on schedule.
	clients int
	rate    float64
	// batch is the images per call (offline only; HTTP carries one).
	batch int
	// pool is how many distinct seeded images the workload draws from.
	pool int
	// warmupCalls is the fixed number of calls set-up makes before the
	// window, from warmupClients callers.
	warmupCalls, warmupClients int
	// limitMs is the latency limit behind slo_share: 2× the seed
	// commit's lat_p50_ms, rounded up to 5 ms.
	limitMs float64
	// replicas is the capsnet-serve subprocess count (router only).
	replicas int
	// maxDelay is serve.Config.MaxDelay (in-process server only); 0
	// leaves the server's default.
	maxDelay time.Duration
}

var workloads = []workloadSpec{
	// Batch 2, not more: a 24 s window must hold ≥ 100 calls for p90 to
	// keep ten samples beyond it, and two images keep both cores of the
	// reference host busy. A pool of 16 keeps the exact batch-1
	// references (150 ms each) affordable.
	{name: "offline_mn1", kind: kindOffline, model: "mn1", clients: 1, batch: 2, pool: 16,
		warmupCalls: 2, warmupClients: 1, limitMs: 310},
	// Twice MaxBatch callers and a fill window they never wait out: one
	// cohort of 8 fills the next batch while the other's runs, a batch
	// closes when its 8th request arrives, and the runner is never idle.
	// At the default MaxDelay of 2 ms the collector closes a batch before
	// a released cohort has all come back, the cohorts break up, and the
	// mean batch settles anywhere between 2.9 and 5.7 from run to run;
	// lat_p50_ms then moves by up to 33% where throughput moves by half
	// of that.
	{name: "serve_sat", kind: kindServe, model: "rp3872", clients: 16, batch: 1, pool: 256,
		warmupCalls: 64, warmupClients: 16, limitMs: 250, maxDelay: 50 * time.Millisecond},
	{name: "serve_trickle", kind: kindServe, model: "rp3872", rate: 25, batch: 1, pool: 256,
		warmupCalls: 32, warmupClients: 1, limitMs: 40},
	{name: "router_2x", kind: kindRouter, model: "cv288", rate: 25, batch: 1, pool: 256,
		warmupCalls: 64, warmupClients: 4, limitMs: 35, replicas: 2},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// reference is the expected answer for one pool image.
type reference struct {
	class int
	probs []float32
}

// inputs is everything generated from the seed: the program only ever
// sees the images (and, over HTTP, their encoded bodies).
type inputs struct {
	images [][]float32
	bodies [][]byte // JSON classify bodies, one per image
	refs   []reference
	// order maps an op number to the pool image it classifies.
	order []int
	// Offline calls, prepared so the measured loop allocates nothing:
	// call op classifies batches[op%len] and must produce Lengths whose
	// checksum is batchSums[op%len].
	batches   [][][]float32
	batchSums []uint64
}

// newImagePool draws n seeded images of imgLen pixels in [0, 1). The
// images are all distinct so the router's body-hash placement spreads
// them over replicas.
func newImagePool(seed int64, n, imgLen int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	images := make([][]float32, n)
	for i := range images {
		img := make([]float32, imgLen)
		for p := range img {
			img[p] = rng.Float32()
		}
		images[i] = img
	}
	return images
}

// newInputs builds the image pool, the op→image order, the request
// bodies, and each image's reference: a direct batch-1 exact-math
// forward pass on a network of the benchmark's own, which every
// response must then match bit for bit (results are stated to be
// independent of batch size and partition).
func newInputs(spec workloadSpec, seed int64) (*inputs, error) {
	cfg := models[spec.model]
	refNet, err := capsnet.New(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{images: newImagePool(seed, spec.pool, refNet.ImageLen())}
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	in.order = make([]int, 4096)
	for i := range in.order {
		in.order[i] = rng.Intn(spec.pool)
	}
	for _, img := range in.images {
		out := refNet.ForwardBatch([][]float32{img}, capsnet.ExactMath{})
		in.refs = append(in.refs, reference{
			class: out.Predictions()[0],
			probs: append([]float32(nil), out.Lengths.Data()...),
		})
		out.Release()
		if spec.kind != kindOffline {
			body, err := json.Marshal(struct {
				Image []float32 `json:"image"`
			}{img})
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, body)
		}
	}
	if spec.kind == kindOffline {
		for at := 0; at+spec.batch <= len(in.order); at += spec.batch {
			var images [][]float32
			var want []float32
			for _, idx := range in.order[at : at+spec.batch] {
				images = append(images, in.images[idx])
				want = append(want, in.refs[idx].probs...)
			}
			in.batches = append(in.batches, images)
			in.batchSums = append(in.batchSums, checksum(want))
		}
	}
	return in, nil
}

// image returns the pool index of the image request op classifies.
func (in *inputs) image(op int) int { return in.order[op%len(in.order)] }

// matches reports whether a response equals image idx's reference.
func (in *inputs) matches(idx, class int, probs []float32) bool {
	ref := in.refs[idx]
	return class == ref.class && len(probs) == len(ref.probs) && checksum(probs) == checksum(ref.probs)
}

// checksum is FNV-1a over the bit patterns of xs, so equal checksums
// mean bit-equal values; written out so the measured loop does not
// allocate a hash.
func checksum(xs []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		u := math.Float32bits(x)
		for shift := 0; shift < 32; shift += 8 {
			h = (h ^ uint64(byte(u>>shift))) * 1099511628211
		}
	}
	return h
}

// paceJitter is how far, as a share of the interval between arrivals,
// a seeded draw moves each arrival off the even grid.
const paceJitter = 0.25

// schedule returns the open-loop arrival offsets for a window: one
// arrival per 1/rate seconds, each moved later by a seeded draw of up
// to paceJitter of that interval, so that arrivals do not lock step
// with the program's own timers. Calls are still sent on schedule
// whether or not earlier ones have returned, and timed from when they
// were due. The arrivals are paced and not Poisson because a window
// holds a few hundred of them: with Poisson arrivals at these rates one
// request in four finds its server busy, p90 lies among those, and both
// percentiles moved by 15-30% from run to run of the same code.
func schedule(rate float64, seconds int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x2545f491))
	offsets := make([]float64, int(rate*float64(seconds)))
	for i := range offsets {
		offsets[i] = (float64(i) + paceJitter*rng.Float64()) / rate
	}
	return offsets
}

// computedWork is the work per image computed from the model's shapes
// (not measured): multiply-accumulates of û = W·u and of the
// PrimaryCaps convolution, and the bytes routing streams when û does
// not stay in cache — û is read once by each aggregate and each
// agreement.
func computedWork(cfg capsnet.Config) (predMACs, primaryMACs, routingBytes float64) {
	out := func(in, k, stride int) int { return (in-k)/stride + 1 }
	positions := float64(out(out(cfg.InputH, cfg.ConvKernel, cfg.ConvStride), cfg.PrimaryKernel, cfg.PrimaryStride) *
		out(out(cfg.InputW, cfg.ConvKernel, cfg.ConvStride), cfg.PrimaryKernel, cfg.PrimaryStride))
	l, h := positions*float64(cfg.PrimaryChannels), float64(cfg.Classes)
	predMACs = l * h * float64(cfg.PrimaryDim*cfg.DigitDim)
	primaryMACs = positions * float64(cfg.PrimaryChannels*cfg.PrimaryDim) *
		float64(cfg.ConvChannels*cfg.PrimaryKernel*cfg.PrimaryKernel)
	passes := float64(2*cfg.RoutingIterations - 1)
	routingBytes = passes * l * h * float64(cfg.DigitDim) * 4
	return predMACs, primaryMACs, routingBytes
}

func (w workloadSpec) String() string {
	if w.rate > 0 {
		return fmt.Sprintf("%s: open loop, paced %g req/s, model %s", w.name, w.rate, w.model)
	}
	return fmt.Sprintf("%s: closed loop, %d caller(s) × %d image(s), model %s", w.name, w.clients, w.batch, w.model)
}
