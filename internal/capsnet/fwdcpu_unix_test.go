//go:build unix

package capsnet

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

// selfCPU returns the user+system CPU time this process has used.
func selfCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkForwardBatch runs ForwardBatch on the repository benchmark's
// three models (mn1 is MNISTConfig) at batch 1 and 8 over the
// Network's GOMAXPROCS workers, and reports the process's CPU per pass
// (getrusage, user + system, so the chunk workers count) as cpu_ms/op
// and that CPU over wall time as cores_busy: what the chunking costs
// and how much of the host's parallelism a pass keeps busy.
func BenchmarkForwardBatch(b *testing.B) {
	for _, m := range []struct {
		name string
		cfg  Config
	}{
		{"rp3872", rp3872Config},
		{"cv288", cv288Config},
		{"mn1", MNISTConfig()},
	} {
		for _, nb := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/nb%d", m.name, nb), func(b *testing.B) {
				net, err := New(m.cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer net.Close()
				imgs := arenaTestImages(net, nb, 3)
				net.ForwardBatch(imgs, ExactMath{}).Release() // grow the arena, spawn the workers
				b.ResetTimer()
				cpu, start := selfCPU(b), time.Now()
				for i := 0; i < b.N; i++ {
					net.ForwardBatch(imgs, ExactMath{}).Release()
				}
				cpu, wall := selfCPU(b)-cpu, time.Since(start)
				b.ReportMetric(float64(cpu)/float64(time.Millisecond)/float64(b.N), "cpu_ms/op")
				b.ReportMetric(float64(cpu)/float64(wall), "cores_busy")
			})
		}
	}
}

// BenchmarkForwardPaced is the cold row: rp3872 at batch 1, one pass
// every 40 ms as serve_trickle's 25 req/s paces them, so each pass
// finds W (19.8 MB) out of cache. The timer runs only across the
// passes, so ns/op is the pass alone; cpu_ms/op is the process's CPU
// over the whole paced loop, sleeps included, so the chunk workers'
// wake and spin around a pass count. It fails if a pass allocates,
// counting as allocs/op does only while the timer runs: the runtime's
// own allocations in between (timer heaps, threads a GC start wakes)
// are not the forward's. Give it a fixed count (-benchtime 100x): at
// the default benchtime it sleeps for about 15 s.
func BenchmarkForwardPaced(b *testing.B) {
	const pace = 40 * time.Millisecond
	b.Run("rp3872/nb1", func(b *testing.B) {
		net, err := New(rp3872Config)
		if err != nil {
			b.Fatal(err)
		}
		defer net.Close()
		imgs := arenaTestImages(net, 1, 3)
		net.ForwardBatch(imgs, ExactMath{}).Release() // size the arena, spawn the workers
		time.Sleep(pace)                              // arm this goroutine's sleep timer
		fillSudogCaches()
		var ms runtime.MemStats
		var mallocs uint64
		b.ResetTimer()
		b.StopTimer()
		cpu := selfCPU(b)
		for i := 0; i < b.N; i++ {
			time.Sleep(pace)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			b.StartTimer()
			net.ForwardBatch(imgs, ExactMath{}).Release()
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - before
		}
		cpu = selfCPU(b) - cpu
		if mallocs != 0 {
			b.Errorf("%d allocations over %d paced passes, want 0", mallocs, b.N)
		}
		b.ReportMetric(float64(cpu)/float64(time.Millisecond)/float64(b.N), "cpu_ms/op")
	})
}

// fillSudogCaches fills the runtime's caches of channel waiters
// (sudogs). A dispatch whose channel receive blocks takes one from its
// P's cache and frees it into the cache of whichever P it wakes on; a P
// whose cache runs dry takes from the central cache, and only a P whose
// cache overflows adds to it. Paced passes wake on either P, so without
// this the first few hundred of them allocate a 96-byte sudog now and
// then — the runtime's, not the forward's. Parking 512 goroutines at
// once and waking them fills every P's cache and the central one.
func fillSudogCaches() {
	const waiters = 512
	var parked, done sync.WaitGroup
	start := make(chan struct{})
	parked.Add(waiters)
	done.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer done.Done()
			parked.Done()
			<-start
		}()
	}
	parked.Wait()
	time.Sleep(10 * time.Millisecond) // let the last of them block on start
	close(start)
	done.Wait()
}
