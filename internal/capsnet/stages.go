package capsnet

// Stage names a timed forward pass reports through StageTimer, in
// pipeline order. They become the stage label values of the serving
// layer's capsnet_stage_seconds histograms and the span names in
// exported Chrome traces, so renaming one is a metrics-schema change
// (guarded by the serve package's golden exposition test).
//
// The hierarchy is intentional: StageRoutingIteration brackets one
// whole dynamic-routing iteration, and the three StageRouting*
// sub-stages (softmax, aggregate+squash, agreement) nest inside it —
// the same decomposition the paper's Fig. 3 flow uses for its
// routing-procedure breakdown.
const (
	// StageConv is the front-end convolution + ReLU over the batch.
	StageConv = "conv"
	// StagePrimaryCaps is the PrimaryCaps convolution, capsule
	// regrouping, and squash.
	StagePrimaryCaps = "primary_caps"
	// StagePredictionVectors is Eq. 1: û_j|i = u_i × W_ij.
	StagePredictionVectors = "prediction_vectors"
	// StageRoutingPartition named a marker of the retired B/H routing
	// partition. Nothing emits it; it remains only because the
	// benchmark module (bench/spans.go) compiles against it.
	StageRoutingPartition = "routing_partition"
	// StageRoutingIteration brackets one full dynamic-routing
	// iteration (reported with its iteration index).
	StageRoutingIteration = "routing_iteration"
	// StageRoutingSoftmax is Eq. 5: c_ij ← softmax_j(b_ij).
	StageRoutingSoftmax = "routing_softmax"
	// StageRoutingAggregate is Eq. 2 + Eq. 3: the weighted aggregation
	// s_j ← Σ c_ij·û_j|i and the squash v_j ← squash(s_j).
	StageRoutingAggregate = "routing_aggregate_squash"
	// StageRoutingAgreement is Eq. 4: b_ij ← b_ij + v_j·û_j|i (skipped
	// after the final iteration).
	StageRoutingAgreement = "routing_agreement"
	// StageFiniteGuard is the non-finite-output scan plus any
	// exact-math reroutes it triggers (the degradation ladder).
	StageFiniteGuard = "finite_guard"
	// StageLengths is the ‖v_j‖ class-probability computation.
	StageLengths = "lengths"
)

// StageTimer observes stage boundaries inside a forward pass.
// BeginStage is called when a stage starts and returns the function
// to invoke when it ends (the returned func may be nil). The
// iteration argument is the dynamic-routing iteration index, or -1
// for stages that are not per-iteration.
//
// Implementations do their own timing — this package passes no
// timestamps and imports no clock — so an observer built around an
// injected fake clock (internal/obs.StageRecorder) makes stage timing
// fully deterministic in tests. Implementations must be safe for use
// from the single goroutine running the forward pass; a Network
// shared by concurrent Forward callers needs a concurrency-safe
// StageTimer.
type StageTimer interface {
	BeginStage(stage string, iteration int) (end func())
}

// beginStage starts a stage on t, tolerating a nil timer — the one
// pointer check a disabled forward pass pays per stage site.
func beginStage(t StageTimer, stage string, iteration int) func() {
	if t == nil {
		return nil
	}
	return t.BeginStage(stage, iteration)
}

// endStage completes a stage started by beginStage.
func endStage(end func()) {
	if end != nil {
		end()
	}
}
