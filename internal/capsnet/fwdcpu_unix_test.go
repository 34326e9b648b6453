//go:build unix

package capsnet

import (
	"fmt"
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
