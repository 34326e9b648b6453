package capsnet

import (
	"bytes"
	"math"
	"math/rand"
	"os"
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

// arenaFootprint is the closed form of a scratch's arena for batches
// up to nb over workers chunk workers, in bytes: per sample the input
// image, the conv features, the PrimaryCaps conv output, u, û, b and c,
// v and s, and the lengths; per worker one im2col scratch sized for the
// larger of the two conv layers and Eq. 4's v replica.
func arenaFootprint(n *Network, nb, workers int) uint64 {
	cfg := n.Config
	conv, prim := n.Conv.Spec, n.Primary.Conv.Spec
	fh, fw := conv.OutSize(cfg.InputH, cfg.InputW)
	ph, pw := prim.OutSize(fh, fw)
	nl, cl, nh, ch := n.Digit.NumIn, n.Digit.DimIn, n.Digit.NumOut, n.Digit.DimOut
	perSample := cfg.InputChannels*cfg.InputH*cfg.InputW + conv.Cout*fh*fw + prim.Cout*ph*pw +
		nl*cl + nl*nh*ch + 2*nl*nh + 2*nh*ch + cfg.Classes
	perWorker := max(tensor.ConvColsLen(conv, cfg.InputH, cfg.InputW, 1), tensor.ConvColsLen(prim, fh, fw, nb)) +
		agreeReplicaLen(nh, ch)
	return 4 * uint64(nb*perSample+workers*perWorker)
}

// TestArenaBytesPinned pins the forward-pass arena of the repository
// benchmark's models at the batch sizes its workloads run to the
// closed form above and to its value, at one and two workers, so any
// growth of the scratch is a deliberate diff here.
func TestArenaBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		nb   int
		want [2]uint64 // bytes at 1 and 2 workers
	}{
		{"mn1", MNISTConfig(), 2, [2]uint64{5622992, 8611536}},
		{"rp3872", rp3872Config, 1, [2]uint64{3121000, 3183464}},
		{"rp3872", rp3872Config, 8, [2]uint64{24753536, 25038784}},
		{"cv288", cv288Config, 1, [2]uint64{1081704, 1830760}},
	} {
		for i, workers := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(workers)
			net, err := New(tc.cfg)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
			net.ForwardBatch(arenaTestImages(net, tc.nb, 1), ExactMath{}).Release()
			got, closed := net.ArenaBytes(), arenaFootprint(net, tc.nb, workers)
			net.Close()
			runtime.GOMAXPROCS(prev)
			if got != closed || got != tc.want[i] {
				t.Errorf("%s nb%d at %d workers: ArenaBytes %d, closed form %d, pinned %d",
					tc.name, tc.nb, workers, got, closed, tc.want[i])
			}
		}
	}
}

// TestCloseReturnsPooledArenas holds the gauge's lifetime without a
// finalizer: Close takes every pooled scratch off ArenaBytes, an Output
// still held at Close keeps counting until it is released, and its
// release after Close takes it off too.
func TestCloseReturnsPooledArenas(t *testing.T) {
	net, err := New(TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	images := arenaTestImages(net, 2, 5)
	pooled := net.ForwardBatch(images, ExactMath{})
	one := net.ArenaBytes()
	held := net.ForwardBatch(images, ExactMath{})
	pooled.Release()
	if one == 0 || net.ArenaBytes() != 2*one {
		t.Fatalf("ArenaBytes %d with two scratches of %d live", net.ArenaBytes(), one)
	}
	net.Close()
	if got := net.ArenaBytes(); got != one {
		t.Fatalf("ArenaBytes %d after Close with one Output held, want %d", got, one)
	}
	held.Release()
	if got := net.ArenaBytes(); got != 0 {
		t.Fatalf("ArenaBytes %d after the held Output's release, want 0", got)
	}
}

// TestWeightOnHugePages checks that rp3872's 19.8 MB W gets at least
// 16 MiB of 2 MB pages, read back from the process's memory map. It
// needs linux with transparent huge pages in madvise or always mode.
func TestWeightOnHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || bytes.Contains(mode, []byte("[never]")) {
		t.Skipf("transparent huge pages unavailable (%q, %v)", bytes.TrimSpace(mode), err)
	}
	net, err := New(rp3872Config)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	got := net.WeightHugePageBytes()
	if got < 16<<20 {
		t.Errorf("WeightHugePageBytes %d of a %d-byte W, want at least 16 MiB", got, 4*net.Digit.Weights.Len())
	}
	t.Logf("%d of W's %d bytes on 2 MB pages", got, 4*net.Digit.Weights.Len())
}
