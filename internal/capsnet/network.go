package capsnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"pimcapsnet/internal/tensor"
)

// Config describes a CapsNet with the architecture family of Fig. 2:
// Conv → PrimaryCaps → (routing) → final Caps layer → FC decoder.
type Config struct {
	// Input geometry.
	InputChannels, InputH, InputW int
	// Conv layer.
	ConvChannels, ConvKernel, ConvStride int
	// PrimaryCaps layer.
	PrimaryChannels, PrimaryDim, PrimaryKernel, PrimaryStride int
	// Final capsule layer.
	Classes, DigitDim, RoutingIterations int
	// WithDecoder adds the reconstruction FC stack.
	WithDecoder bool
	// SharedRouting switches the final Caps layer to the paper's
	// batch-shared routing coefficients (Alg. 1) instead of the
	// per-sample coefficients of Sabour et al.
	SharedRouting bool
	// Seed drives all weight initialization.
	Seed int64
}

// MNISTConfig returns the CapsNet-MNIST architecture of Sabour et al.
// (28×28×1 input, 256 9×9 conv, 32×8D primary capsules, 10 16D digit
// capsules, 3 routing iterations).
func MNISTConfig() Config {
	return Config{
		InputChannels: 1, InputH: 28, InputW: 28,
		ConvChannels: 256, ConvKernel: 9, ConvStride: 1,
		PrimaryChannels: 32, PrimaryDim: 8, PrimaryKernel: 9, PrimaryStride: 2,
		Classes: 10, DigitDim: 16, RoutingIterations: 3,
		WithDecoder: true,
		Seed:        1,
	}
}

// TinyConfig returns a miniature network suitable for unit tests and
// quick examples (12×12 input, small capsule counts) while preserving
// every architectural stage.
func TinyConfig(classes int) Config {
	return Config{
		InputChannels: 1, InputH: 12, InputW: 12,
		ConvChannels: 16, ConvKernel: 5, ConvStride: 1,
		PrimaryChannels: 4, PrimaryDim: 8, PrimaryKernel: 5, PrimaryStride: 2,
		Classes: classes, DigitDim: 16, RoutingIterations: 3,
		WithDecoder: false,
		Seed:        1,
	}
}

// Validate reports an error for an inconsistent configuration.
func (c Config) Validate() error {
	if c.InputChannels <= 0 || c.InputH <= 0 || c.InputW <= 0 {
		return fmt.Errorf("capsnet: invalid input geometry %dx%dx%d", c.InputChannels, c.InputH, c.InputW)
	}
	if c.Classes <= 0 || c.DigitDim <= 0 {
		return fmt.Errorf("capsnet: invalid class caps %d·%d", c.Classes, c.DigitDim)
	}
	if c.RoutingIterations < 1 {
		return fmt.Errorf("capsnet: need ≥1 routing iteration, got %d", c.RoutingIterations)
	}
	convSpec := tensor.ConvSpec{Cin: c.InputChannels, Cout: c.ConvChannels, K: c.ConvKernel, Stride: c.ConvStride}
	if err := convSpec.Validate(); err != nil {
		return err
	}
	oh, ow := convSpec.OutSize(c.InputH, c.InputW)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("capsnet: conv kernel %d does not fit input %dx%d", c.ConvKernel, c.InputH, c.InputW)
	}
	if c.PrimaryChannels <= 0 || c.PrimaryDim <= 0 {
		return fmt.Errorf("capsnet: invalid primary caps %d·%d", c.PrimaryChannels, c.PrimaryDim)
	}
	primSpec := tensor.ConvSpec{Cin: c.ConvChannels, Cout: c.PrimaryChannels * c.PrimaryDim, K: c.PrimaryKernel, Stride: c.PrimaryStride}
	if err := primSpec.Validate(); err != nil {
		return err
	}
	ph, pw := primSpec.OutSize(oh, ow)
	if ph <= 0 || pw <= 0 {
		return fmt.Errorf("capsnet: primary kernel %d does not fit conv output %dx%d", c.PrimaryKernel, oh, ow)
	}
	return nil
}

// Network is a complete CapsNet.
type Network struct {
	Config  Config
	Conv    *ConvLayer
	Primary *PrimaryCapsLayer
	Digit   *CapsLayer
	Dec     *Decoder

	// RoutingInputHook, when non-nil, observes (and may mutate) the
	// flattened primary-capsule activations (B×L×DimIn) immediately
	// before the routing procedure. It exists for fault injection
	// (internal/fault's NaN/Inf and forced-panic injectors); nil — the
	// default — costs one pointer check per forward pass.
	RoutingInputHook func(data []float32)

	// Cancel, when non-nil, is polled at the top of every dynamic-
	// routing iteration; returning true aborts the forward pass
	// cooperatively (Output.Aborted is set, the finite guard and length
	// computation are skipped, and the Output carries partial garbage —
	// only Release is meaningful on it). Like Stages and
	// RoutingInputHook this keeps capsnet free of context/serving
	// imports: the serving layer supplies a closure over whatever
	// cancellation source it owns. nil — the default — costs one pointer
	// check per routing run and the routing loop is bit-identical to an
	// unhooked one.
	Cancel CancelCheck

	// IterationLimit, when non-nil, is consulted once per routing run
	// and may lower that run's iteration count below
	// Config.RoutingIterations (values < 1 are clamped to 1; values ≥
	// the configured count are ignored — the hook can only shed work,
	// never add it). The serving layer's brownout controller uses it to
	// trade routing fidelity for latency under overload, the dynamic
	// version of the static iteration-count dial CapsAcc/FastCaps
	// exploit. nil — the default — leaves the iteration count exactly
	// Config.RoutingIterations.
	IterationLimit func() int

	// Stages, when non-nil, observes every stage boundary of a forward
	// pass (conv, primary caps, prediction vectors, each routing
	// iteration and its sub-phases, the finite guard) — the injection
	// point the serving layer's per-stage histograms and request
	// traces hang off without this package importing the observability
	// layer. nil — the default — costs one pointer check per stage
	// site; the forward pass takes the same code path either way, so
	// timed results are bit-identical to untimed ones.
	Stages StageTimer

	// Partition pins the dimension the routing workload is sharded on
	// across workers: PartitionAuto (the default) picks per run with
	// the Eqs. 6–12-style execution-score model, PartitionB forces
	// batch sharding, PartitionH forces high-level-capsule sharding.
	// Results are bit-identical under every setting; only the
	// work-to-worker assignment changes.
	Partition Partition

	convH, convW int // conv output spatial size

	// fallbacks counts forward passes' per-sample exact-math routing
	// re-runs triggered by the finite-value guard.
	fallbacks atomic.Uint64

	// Scratch-arena pool state (see arena.go): released scratches
	// await reuse in scratchFree; closed is set by Close and makes
	// acquireScratch refuse the next pass; pool holds the persistent
	// chunk workers; the atomics feed the ArenaBytes / PartitionCounts
	// gauges serving exposes.
	scratchMu sync.Mutex
	//pimcaps:guardedby scratchMu
	scratchFree []*scratch
	//pimcaps:guardedby scratchMu
	closed bool
	poolMu sync.Mutex
	//pimcaps:guardedby poolMu
	pool *workerPool
	//pimcaps:guardedby poolMu
	poolSpawned int
	arenaFloats atomic.Uint64
	partB       atomic.Uint64
	partH       atomic.Uint64
}

// CancelCheck reports whether an in-flight forward pass should stop
// early. Implementations must be safe to call from the goroutine
// running the forward pass and should be cheap (it is polled once per
// routing iteration); an atomic load is the intended shape. See
// Network.Cancel.
type CancelCheck func() bool

// RoutingFallbacks returns how many samples' routing has been re-run
// with exact math after the approximate path produced non-finite
// values.
func (n *Network) RoutingFallbacks() uint64 { return n.fallbacks.Load() }

// New builds a network from cfg with seeded random initialization.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	conv := NewConvLayer(tensor.ConvSpec{Cin: cfg.InputChannels, Cout: cfg.ConvChannels, K: cfg.ConvKernel, Stride: cfg.ConvStride}, rng)
	oh, ow := conv.Spec.OutSize(cfg.InputH, cfg.InputW)
	primary := NewPrimaryCapsLayer(cfg.ConvChannels, cfg.PrimaryChannels, cfg.PrimaryDim, cfg.PrimaryKernel, cfg.PrimaryStride, rng)
	numL := primary.NumCaps(oh, ow)
	digit := NewCapsLayer(numL, cfg.PrimaryDim, cfg.Classes, cfg.DigitDim, cfg.RoutingIterations, rng)
	if cfg.SharedRouting {
		digit.Mode = RouteBatchShared
	}
	n := &Network{Config: cfg, Conv: conv, Primary: primary, Digit: digit, convH: oh, convW: ow}
	if cfg.WithDecoder {
		n.Dec = NewDecoder(cfg.Classes*cfg.DigitDim, cfg.InputChannels*cfg.InputH*cfg.InputW, rng)
	}
	return n, nil
}

// NumPrimaryCaps returns the number of low-level (primary) capsules.
func (n *Network) NumPrimaryCaps() int { return n.Digit.NumIn }

// Output is the result of a forward pass over one batch.
type Output struct {
	// Capsules holds the final capsule vectors, B×Classes×DigitDim.
	Capsules *tensor.Tensor
	// Lengths holds ‖v_j‖ per class, B×Classes — the class
	// probabilities CapsNet predicts.
	Lengths *tensor.Tensor
	// Routing carries the final routing state (coefficients, logits).
	Routing RoutingResult
	// Primary holds the primary capsules, B×L×DimIn (kept for the
	// trainer).
	Primary *tensor.Tensor
	// ExactFallbacks lists the batch indices whose routing was re-run
	// with ExactMath after the approximate math path produced
	// non-finite capsules (the finite-value guard's degradation
	// ladder: approx → exact). Nil when no sample degraded.
	ExactFallbacks []int
	// NonFinite lists the batch indices whose capsules are still
	// non-finite after the exact-math fallback (e.g. the routing
	// inputs themselves were corrupt); serving layers must fail these
	// samples instead of emitting NaN probabilities.
	NonFinite []int
	// Aborted reports that the Network's Cancel hook stopped the pass
	// between routing iterations: every tensor above holds partial
	// state, the finite guard and lengths never ran, and the only
	// correct use of the Output is Release. Serving layers fail the
	// batch's requests with their own typed error.
	Aborted bool

	// scr is the scratch arena backing every tensor above; Release
	// returns it to the Network's pool (see arena.go).
	scr *scratch
}

// Predictions returns the argmax class per batch element.
func (o *Output) Predictions() []int {
	nb, nc := o.Lengths.Dim(0), o.Lengths.Dim(1)
	out := make([]int, nb)
	for k := 0; k < nb; k++ {
		out[k] = tensor.ArgMax(o.Lengths.Data()[k*nc : (k+1)*nc])
	}
	return out
}

// Forward runs the encoder on a batch of images (B×C×H×W) with the
// given routing math.
//
// Every tensor the returned Output exposes is a view over a pooled
// scratch arena owned by the Network; call Output.Release when done
// with it to make the steady-state forward path allocation-free, or
// simply keep the Output (and its buffers) by never releasing it.
func (n *Network) Forward(batch *tensor.Tensor, mathOps RoutingMath) *Output {
	if batch.Rank() != 4 {
		panic(fmt.Sprintf("capsnet: Forward wants B×C×H×W, got %v", batch.Shape()))
	}
	scr := n.acquireScratch(batch.Dim(0))
	scr.in = batch.Data()
	return n.forward(scr, mathOps)
}

// routingIterations is the Digit layer's iteration count for one pass.
// The brownout override can only shed iterations (floor 1), never add
// them; with the hook nil the count is the configured one.
func (n *Network) routingIterations() int {
	iterations := n.Digit.Iterations
	if lim := n.IterationLimit; lim != nil {
		if k := lim(); k < iterations {
			iterations = max(k, 1)
		}
	}
	return iterations
}

// forward is the scratch-arena forward core shared by Forward and
// ForwardBatch: the input images are already bound at scr.in and every
// intermediate lives in scr's arena. Conv (chunked over samples) and
// PrimaryCaps (over capsule channels) each run as one batch-wide
// dispatch, then Eq. 1, the routing loop, the finite guard and the
// ‖v_j‖ lengths; every output's accumulation order is fixed, so
// outputs do not depend on batch size, partition or worker count.
func (n *Network) forward(scr *scratch, mathOps RoutingMath) *Output {
	scr.math = mathOps
	scr.bind()
	nb := scr.nb
	st := n.Stages
	end := beginStage(st, StageConv, -1)
	scr.runChunks(nb, scr.convFn)
	endStage(end)
	end = beginStage(st, StagePrimaryCaps, -1)
	scr.runChunks(scr.primChunks, scr.primFn)
	endStage(end)
	if hook := n.RoutingInputHook; hook != nil {
		hook(scr.uT.Data())
	}
	end = beginStage(st, StagePredictionVectors, -1)
	scr.runChunks(n.Digit.NumIn, scr.predFn)
	endStage(end)
	iterations := n.routingIterations()
	aborted := scr.routing.run(scr.chunker, n.Digit.Mode, iterations, n.Partition, n.Cancel, st)
	if scr.dim == PartitionB {
		n.partB.Add(1)
	} else {
		n.partH.Add(1)
	}
	out := &scr.out
	out.Capsules = scr.vT
	out.Lengths = scr.lengthsT
	out.Routing = RoutingResult{V: scr.vT, C: scr.cT, B: scr.bT}
	out.Primary = scr.uT
	out.ExactFallbacks = nil
	out.NonFinite = nil
	out.Aborted = aborted
	out.scr = scr
	if aborted {
		// Cooperative abort: the caller only wants the arena back, so
		// the finite guard and length computation — work on partial
		// routing state — are skipped entirely.
		return out
	}
	end = beginStage(st, StageFiniteGuard, -1)
	n.finiteGuard(scr, out, iterations)
	endStage(end)
	end = beginStage(st, StageLengths, -1)
	nc, dd := n.Config.Classes, n.Config.DigitDim
	for k := 0; k < nb; k++ {
		for j := 0; j < nc; j++ {
			off := (k*nc + j) * dd
			scr.lengths[k*nc+j] = tensor.Norm(scr.v[off : off+dd])
		}
	}
	endStage(end)
	return out
}

// allFinite reports whether every element of xs is a finite float32
// (exponent field not all-ones, covering both NaN and ±Inf).
func allFinite(xs []float32) bool {
	for _, v := range xs {
		if math.Float32bits(v)&0x7f800000 == 0x7f800000 {
			return false
		}
	}
	return true
}

// finiteGuard is the routing-level degradation ladder: after the
// routing loop ran with the pass's math, any sample whose output
// capsules are non-finite (the bit-trick approximations of
// internal/fp32 saturate to 0/±Inf and can amplify to NaN) has its
// routing re-run with ExactMath — the host-precision path, for the
// pass's own iteration count — and the fallback counted. Samples still
// non-finite after the exact re-run (corrupt inputs, flipped weights)
// are reported in out.NonFinite so the serving layer can fail them
// individually instead of crashing or emitting NaN.
func (n *Network) finiteGuard(scr *scratch, out *Output, iterations int) {
	rowV := scr.nh * scr.ch
	_, exact := scr.math.(ExactMath)
	for k := 0; k < scr.nb; k++ {
		if allFinite(scr.v[k*rowV : (k+1)*rowV]) {
			continue
		}
		if !exact {
			scr.rerouteSample(k, iterations)
			n.fallbacks.Add(1)
			out.ExactFallbacks = append(out.ExactFallbacks, k)
			if allFinite(scr.v[k*rowV : (k+1)*rowV]) {
				continue
			}
		}
		out.NonFinite = append(out.NonFinite, k)
	}
}

// Reconstruct runs the decoder on the capsules of batch element k,
// masking all but class j (the standard CapsNet reconstruction).
// It panics if the network was built without a decoder.
func (n *Network) Reconstruct(out *Output, k, j int) []float32 {
	if n.Dec == nil {
		panic("capsnet: network has no decoder")
	}
	nc, dd := n.Config.Classes, n.Config.DigitDim
	masked := make([]float32, nc*dd)
	copy(masked[j*dd:(j+1)*dd], out.Capsules.Data()[(k*nc+j)*dd:(k*nc+j+1)*dd])
	return n.Dec.Forward(masked)
}
