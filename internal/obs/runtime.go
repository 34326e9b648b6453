package obs

import (
	"math"
	"runtime/metrics"
)

// runtimeGauge maps one exposition name to the runtime/metrics names
// that can back it, in preference order (the runtime renames metrics
// across Go releases — e.g. GC pauses moved from /gc/pauses:seconds
// to /sched/pauses/total/gc:seconds).
type runtimeGauge struct {
	name       string
	candidates []string
	// p99 extracts the 99th percentile when the sample is a
	// Float64Histogram instead of a scalar.
	p99 bool
}

var runtimeGauges = []runtimeGauge{
	{name: "capsnet_go_goroutines", candidates: []string{"/sched/goroutines:goroutines"}},
	{name: "capsnet_go_heap_objects_bytes", candidates: []string{"/memory/classes/heap/objects:bytes"}},
	{name: "capsnet_go_memory_total_bytes", candidates: []string{"/memory/classes/total:bytes"}},
	{name: "capsnet_go_gc_cycles_total", candidates: []string{"/gc/cycles/total:gc-cycles"}},
	{name: "capsnet_go_gc_pause_p99_seconds", p99: true,
		candidates: []string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"}},
	{name: "capsnet_go_sched_latency_p99_seconds", p99: true,
		candidates: []string{"/sched/latencies:seconds"}},
}

// runtimeResolved is computed once: the gauges this Go runtime can
// back, each with candidates cut down to the one metric that does.
// Gauges whose backing metric does not exist are omitted rather than
// reported as zero.
var runtimeResolved = resolveRuntimeGauges()

func resolveRuntimeGauges() []runtimeGauge {
	available := make(map[string]bool)
	for _, d := range metrics.All() {
		available[d.Name] = true
	}
	var resolved []runtimeGauge
	for _, g := range runtimeGauges {
		for _, c := range g.candidates {
			if available[c] {
				g.candidates = []string{c}
				resolved = append(resolved, g)
				break
			}
		}
	}
	return resolved
}

// CollectRuntime is the Registry collector for the process-health
// gauges (goroutine count, heap bytes, GC cycles, GC pause p99,
// scheduler latency p99), sampled from runtime/metrics at each scrape.
func CollectRuntime(e *Emitter) {
	samples := make([]metrics.Sample, len(runtimeResolved))
	for i, g := range runtimeResolved {
		samples[i].Name = g.candidates[0]
	}
	metrics.Read(samples)
	for i, g := range runtimeResolved {
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindUint64:
			e.Float(g.name, float64(v.Uint64()))
		case metrics.KindFloat64:
			e.Float(g.name, v.Float64())
		case metrics.KindFloat64Histogram:
			if g.p99 {
				e.Float(g.name, histPercentile(v.Float64Histogram(), 0.99))
			}
		}
	}
}

// histPercentile estimates the p-th percentile of a runtime
// Float64Histogram as the upper boundary of the bucket containing the
// rank (clamping the ±Inf edge buckets to their finite neighbour).
func histPercentile(h *metrics.Float64Histogram, p float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	var cum float64
	for i, c := range h.Counts {
		cum += float64(c)
		if cum >= rank {
			// Bucket i spans [Buckets[i], Buckets[i+1]).
			hi := h.Buckets[i+1]
			if !math.IsInf(hi, 0) {
				return hi
			}
			lo := h.Buckets[i]
			if math.IsInf(lo, 0) {
				return 0
			}
			return lo
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
