package capsnet

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pimcapsnet/internal/tensor"
)

// arenaTestImages builds a deterministic batch of flattened images for
// a TinyConfig network.
func arenaTestImages(n *Network, nb int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	images := make([][]float32, nb)
	for k := range images {
		img := make([]float32, n.ImageLen())
		for i := range img {
			img[i] = rng.Float32()
		}
		images[k] = img
	}
	return images
}

// TestForwardBatchAllocFree holds the tentpole invariant: once the
// scratch pool is warm (the Output of each call released back), a
// ForwardBatch pass performs zero heap allocations.
func TestForwardBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	images := arenaTestImages(net, 4, 1)
	mathOps := RoutingMath(ExactMath{})
	// Warm the pool: first call builds the scratch and the worker pool.
	for i := 0; i < 2; i++ {
		net.ForwardBatch(images, mathOps).Release()
	}
	allocs := testing.AllocsPerRun(10, func() {
		net.ForwardBatch(images, mathOps).Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state ForwardBatch allocated %.1f times per run, want 0", allocs)
	}
}

// TestForwardAllocFree is the same invariant for the tensor-batch
// entry point.
func TestForwardAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	batch := tensor.New(2, 1, 12, 12)
	rng := rand.New(rand.NewSource(3))
	for i := range batch.Data() {
		batch.Data()[i] = rng.Float32()
	}
	mathOps := RoutingMath(ExactMath{})
	for i := 0; i < 2; i++ {
		net.Forward(batch, mathOps).Release()
	}
	allocs := testing.AllocsPerRun(10, func() {
		net.Forward(batch, mathOps).Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Forward allocated %.1f times per run, want 0", allocs)
	}
}

// TestForwardBatchAllocFreeMultiWorker repeats the zero-allocation
// invariant with a multi-worker scratch: the chunk dispatch through
// the persistent worker pool (job slots, buffered done channel) must
// not allocate either. The scratch snapshots its worker count at
// creation, so the pooled dispatch path runs even though AllocsPerRun
// pins GOMAXPROCS to 1 during measurement.
func TestForwardBatchAllocFreeMultiWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	images := arenaTestImages(net, 8, 2)
	mathOps := RoutingMath(ExactMath{})
	for i := 0; i < 2; i++ {
		net.ForwardBatch(images, mathOps).Release()
	}
	allocs := testing.AllocsPerRun(10, func() {
		net.ForwardBatch(images, mathOps).Release()
	})
	if allocs != 0 {
		t.Fatalf("multi-worker ForwardBatch allocated %.1f times per run, want 0", allocs)
	}
}

// TestRoutingIterationAllocFree pins the per-iteration cost: with a
// single routing iteration configured, the whole arena-path forward
// (which includes exactly one softmax/aggregate/squash round) still
// allocates nothing, so each extra iteration adds zero allocations
// too.
func TestRoutingIterationAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := TinyConfig(3)
	cfg.RoutingIterations = 1
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	images := arenaTestImages(net, 2, 5)
	mathOps := RoutingMath(NewPEMath())
	for i := 0; i < 2; i++ {
		net.ForwardBatch(images, mathOps).Release()
	}
	allocs := testing.AllocsPerRun(10, func() {
		net.ForwardBatch(images, mathOps).Release()
	})
	if allocs != 0 {
		t.Fatalf("1-iteration ForwardBatch allocated %.1f times per run, want 0", allocs)
	}
}

// TestArenaReuseBitIdentical holds the correctness side of the arena:
// reusing a released scratch (including after shrinking and regrowing
// the batch) produces bit-identical outputs to a network that builds
// fresh buffers every call.
func TestArenaReuseBitIdentical(t *testing.T) {
	cfg := TinyConfig(4)
	reuse, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		mathOps RoutingMath
	}{{"exact", ExactMath{}}, {"pe", NewPEMath()}} {
		// Batch sizes chosen to exercise reuse at capacity, below
		// capacity (stale tail data in the buffers), and regrowth.
		for i, nb := range []int{4, 1, 3, 4, 6} {
			images := arenaTestImages(reuse, nb, int64(100+i))
			got := reuse.ForwardBatch(images, mode.mathOps)
			want := fresh.ForwardBatch(images, mode.mathOps)
			for j, v := range want.Capsules.Data() {
				if math.Float32bits(v) != math.Float32bits(got.Capsules.Data()[j]) {
					t.Fatalf("%s nb=%d: capsule %d differs after arena reuse", mode.name, nb, j)
				}
			}
			for j, v := range want.Lengths.Data() {
				if math.Float32bits(v) != math.Float32bits(got.Lengths.Data()[j]) {
					t.Fatalf("%s nb=%d: length %d differs after arena reuse", mode.name, nb, j)
				}
			}
			got.Release()
			// fresh's outputs are deliberately never released, so every
			// fresh.ForwardBatch call runs on brand-new buffers.
		}
	}
}

// TestForcedPartitionsBitIdentical holds the Partition knob's
// contract: forcing either shard dimension changes no output bit
// relative to the automatic choice, for both routing modes.
func TestForcedPartitionsBitIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // make multi-worker sharding real
	defer runtime.GOMAXPROCS(prev)
	for _, shared := range []bool{false, true} {
		cfg := TinyConfig(4)
		cfg.SharedRouting = shared
		var ref *Output
		for _, part := range []Partition{PartitionAuto, PartitionB, PartitionH} {
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			net.Partition = part
			images := arenaTestImages(net, 5, 42)
			out := net.ForwardBatch(images, ExactMath{})
			if ref == nil {
				ref = out
				continue
			}
			for j, v := range ref.Capsules.Data() {
				if math.Float32bits(v) != math.Float32bits(out.Capsules.Data()[j]) {
					t.Fatalf("shared=%v partition=%v: capsule %d differs from auto", shared, part, j)
				}
			}
			pb, ph := net.PartitionCounts()
			switch part {
			case PartitionB:
				if pb == 0 || ph != 0 {
					t.Fatalf("forced B: counts (%d, %d)", pb, ph)
				}
			case PartitionH:
				if ph == 0 || pb != 0 {
					t.Fatalf("forced H: counts (%d, %d)", pb, ph)
				}
			}
		}
	}
}

// TestConcurrentForwardBatchRelease drives concurrent ForwardBatch
// callers through the shared scratch pool and worker pool (this is the
// race-detector target for the arena path) and checks each goroutine
// sees results identical to a serial reference.
func TestConcurrentForwardBatchRelease(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	const rounds = 8
	inputs := make([][][]float32, goroutines)
	refs := make([][]float32, goroutines)
	for g := range inputs {
		inputs[g] = arenaTestImages(net, 1+g%3, int64(500+g))
		out := net.ForwardBatch(inputs[g], ExactMath{})
		refs[g] = append([]float32(nil), out.Lengths.Data()...)
		out.Release()
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				out := net.ForwardBatch(inputs[g], ExactMath{})
				for j, v := range refs[g] {
					if math.Float32bits(v) != math.Float32bits(out.Lengths.Data()[j]) {
						errs <- errMismatch(g, r, j)
						out.Release()
						return
					}
				}
				out.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errMismatch3 struct{ g, r, j int }

func errMismatch(g, r, j int) error { return errMismatch3{g, r, j} }

func (e errMismatch3) Error() string {
	return "concurrent ForwardBatch mismatch (goroutine/round/index): " +
		itoa(e.g) + "/" + itoa(e.r) + "/" + itoa(e.j)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestReleaseIdempotent checks double-Release is harmless: the scratch
// must return to the pool exactly once, so two sequential forwards
// after a double release still use distinct buffers.
func TestReleaseIdempotent(t *testing.T) {
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	images := arenaTestImages(net, 2, 9)
	out := net.ForwardBatch(images, ExactMath{})
	out.Release()
	out.Release()
	a := net.ForwardBatch(images, ExactMath{})
	b := net.ForwardBatch(images, ExactMath{})
	if a.scr == b.scr {
		t.Fatal("double Release returned the same scratch twice")
	}
	if net.ArenaBytes() == 0 {
		t.Fatal("ArenaBytes reports 0 with live scratches")
	}
}

// TestRunChunksRepanics checks a kernel panic inside a forward pass's
// dispatch is re-raised on the caller and that the scratch remains
// usable afterwards.
func TestRunChunksRepanics(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	images := arenaTestImages(net, 8, 13)
	out := net.ForwardBatch(images, ExactMath{})
	scr := out.scr
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("runChunks did not re-raise the kernel panic")
			}
		}()
		scr.runChunks(8, func(_, lo, hi int) {
			if lo == 0 {
				panic("boom")
			}
		})
	}()
	// The panic cell resets per dispatch: the scratch keeps working.
	out.Release()
	next := net.ForwardBatch(images, ExactMath{})
	if next.Lengths.Dim(0) != 8 {
		t.Fatalf("post-panic forward shape %v", next.Lengths.Shape())
	}
	next.Release()
}

// TestCloseJoinsWorkersAndRejectsForward holds the pool's lifetime
// contract: Close returns only once every chunk worker has reported
// its exit, a second Close is a no-op, and a forward pass afterwards
// fails by name instead of with the runtime's "send on closed channel".
func TestCloseJoinsWorkersAndRejectsForward(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // spawn real pool workers
	defer runtime.GOMAXPROCS(prev)
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	images := arenaTestImages(net, 4, 1)
	net.ForwardBatch(images, ExactMath{}).Release()
	net.poolMu.Lock()
	spawned := net.poolSpawned
	net.poolMu.Unlock()
	if spawned != 3 {
		t.Fatalf("pool spawned %d workers, want 3", spawned)
	}
	net.Close()
	net.Close()
	defer func() {
		const want = "capsnet: forward pass on a closed Network"
		if p := recover(); p != want {
			t.Fatalf("forward after Close: recovered %v, want panic %q", p, want)
		}
	}()
	net.ForwardBatch(images, ExactMath{})
}
