package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pimcapsnet/internal/capsnet"
)

// selfCPU returns the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// times; it is 100 on every Linux architecture Go supports.
const clockTick = time.Second / 100

// procCPU returns the user+system CPU time of another process from
// /proc/<pid>/stat (fields 14 and 15, counted after the parenthesised
// command name, which may itself contain spaces).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

func parseStatCPU(stat []byte) (time.Duration, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	fields := strings.Fields(string(stat[end+1:]))
	// fields[0] is field 3 (state), so utime and stime are fields[11:13].
	if len(fields) < 13 {
		return 0, fmt.Errorf("short stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed stat times")
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns a process's resident-set high-water mark (VmHWM)
// in MB; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// fingerprint identifies the machine and build a result came from.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func environment(root string) fingerprint {
	fp := fingerprint{
		CPUModel: "unknown", Commit: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					fp.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	// A benchmark checkout need not be a git repository.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

// hostCalibration is the roofline of this CPU measured in the same run
// as the kernels it is read against: a compute ceiling (independent
// scalar multiply-add chains) and a bandwidth ceiling (stream triad
// over arrays far larger than the last-level cache), plus the cost of
// the routing math primitives.
type hostCalibration struct {
	fmaGMACs, triadGBs                               float64
	expExactNs, expPENs, invSqrtExactNs, invSqrtPENs float64
}

var sink float32 // keeps calibration loops from being optimised away

// bestOf runs f n times and returns the shortest run: calibration wants
// the ceiling, not the typical case.
func bestOf(n int, f func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best
}

func calibrateHost(seed int64) hostCalibration {
	var c hostCalibration

	const fmaIters = 1 << 23
	d := bestOf(3, func() {
		a0, a1, a2, a3, a4, a5, a6, a7 := float32(1), float32(2), float32(3), float32(4), float32(5), float32(6), float32(7), float32(8)
		const m, k = float32(0.999999), float32(1e-7)
		for i := 0; i < fmaIters; i++ {
			a0, a1, a2, a3 = a0*m+k, a1*m+k, a2*m+k, a3*m+k
			a4, a5, a6, a7 = a4*m+k, a5*m+k, a6*m+k, a7*m+k
		}
		sink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	})
	c.fmaGMACs = 8 * fmaIters / d.Seconds() / 1e9

	// 3 × 64 MB: each array is several times any last-level cache this
	// is likely to run on, so the triad streams from DRAM.
	const triadLen = 16 << 20
	a, b, cc := make([]float32, triadLen), make([]float32, triadLen), make([]float32, triadLen)
	for i := range b {
		b[i], cc[i] = float32(i&1023), float32(i&511)
	}
	d = bestOf(3, func() {
		const s = float32(3)
		for i := range a {
			a[i] = b[i] + s*cc[i]
		}
	})
	sink = a[triadLen/2]
	c.triadGBs = 3 * 4 * triadLen / d.Seconds() / 1e9

	// Routing math over inputs in the ranges routing feeds it: softmax
	// exponents are ≤ 0 after max-subtraction, squash norms are > 0.
	const n = 1_000_000
	rng := rand.New(rand.NewSource(seed))
	neg, pos := make([]float32, n), make([]float32, n)
	for i := range neg {
		neg[i], pos[i] = -8*rng.Float32(), 0.01+4*rng.Float32()
	}
	perElem := func(f func(float32) float32, xs []float32) float64 {
		d := bestOf(3, func() {
			var acc float32
			for _, x := range xs {
				acc += f(x)
			}
			sink = acc
		})
		return float64(d.Nanoseconds()) / n
	}
	exact, pe := capsnet.ExactMath{}, capsnet.NewPEMath()
	c.expExactNs, c.expPENs = perElem(exact.Exp, neg), perElem(pe.Exp, neg)
	c.invSqrtExactNs, c.invSqrtPENs = perElem(exact.InvSqrt, pos), perElem(pe.InvSqrt, pos)
	return c
}
