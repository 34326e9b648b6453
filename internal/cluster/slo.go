package cluster

import (
	"sort"
	"sync"
	"time"

	"pimcapsnet/internal/obs"
)

// SLO window lengths: the fast window catches an active incident
// within a minute, the slow window tells sustained degradation from a
// blip — the standard two-window burn-rate alerting shape.
var sloWindows = []time.Duration{time.Minute, 10 * time.Minute}

// sloSlotCount sizes the per-second ring to cover the longest window.
const sloSlotCount = 600

// DefaultSLOTarget is the availability objective when the config
// leaves it zero: 99.9% of routed requests answered below 5xx.
const DefaultSLOTarget = 0.999

// sloSlot aggregates one second of terminal router responses.
type sloSlot struct {
	sec    int64 // unix second this slot currently holds; 0 = empty
	total  uint64
	errors uint64
	// buckets are cumulative-format-free per-bucket latency counts on
	// the latencyBounds layout (+Inf last), for windowed quantiles.
	// Nil until the slot first fills.
	buckets []uint64
}

// SLOTracker keeps a rolling per-second window of terminal router
// responses and derives the SLO gauges: availability ratio, windowed
// latency p99, and error-budget burn rate over 1m/10m windows. Safe
// for concurrent use.
type SLOTracker struct {
	target float64
	clock  obs.Clock

	mu sync.Mutex
	//pimcaps:guardedby mu
	slots [sloSlotCount]sloSlot
}

// NewSLOTracker builds a tracker with the given availability target
// (0 means DefaultSLOTarget) and clock (nil means obs.Wall).
func NewSLOTracker(target float64, clock obs.Clock) *SLOTracker {
	if target <= 0 || target >= 1 {
		target = DefaultSLOTarget
	}
	if clock == nil {
		clock = obs.Wall
	}
	return &SLOTracker{target: target, clock: clock}
}

// Observe records one terminal (client-visible) router response. A
// status of 500 or above spends error budget; 4xx is the client's
// fault and 429 is backpressure, neither an availability failure.
func (s *SLOTracker) Observe(status int, latency time.Duration) {
	if s == nil {
		return
	}
	sec := s.clock.Now().Unix()
	lat := latency.Seconds()
	if lat < 0 {
		lat = 0
	}
	b := sort.SearchFloat64s(latencyBounds, lat)
	s.mu.Lock()
	slot := &s.slots[sec%sloSlotCount]
	if slot.sec != sec {
		*slot = sloSlot{sec: sec, buckets: make([]uint64, len(latencyBounds)+1)}
	}
	slot.total++
	if status >= 500 {
		slot.errors++
	}
	slot.buckets[b]++
	s.mu.Unlock()
}

// windowSums aggregates the slots covering the last window seconds.
func (s *SLOTracker) windowSums(window time.Duration) (total, errors uint64, buckets []uint64) {
	buckets = make([]uint64, len(latencyBounds)+1)
	now := s.clock.Now().Unix()
	oldest := now - int64(window/time.Second) + 1
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.slots {
		slot := &s.slots[i]
		if slot.sec < oldest || slot.sec > now {
			continue
		}
		total += slot.total
		errors += slot.errors
		for j := range slot.buckets {
			buckets[j] += slot.buckets[j]
		}
	}
	return total, errors, buckets
}

// Availability returns the fraction of the window's terminal responses
// that were not 5xx, and the response count. An empty window reports
// 1 — no traffic spends no error budget.
func (s *SLOTracker) Availability(window time.Duration) (ratio float64, total uint64) {
	total, errors, _ := s.windowSums(window)
	if total == 0 {
		return 1, 0
	}
	return 1 - float64(errors)/float64(total), total
}

// LatencyP99 estimates the window's 99th-percentile latency from the
// bucketed counts, as obs.Histogram does (ranks in the +Inf bucket clip
// to the largest finite bound). 0 when the window is empty.
func (s *SLOTracker) LatencyP99(window time.Duration) float64 {
	_, _, buckets := s.windowSums(window)
	return obs.BucketQuantile(latencyBounds, buckets, 0.99)
}

// BurnRate returns how fast the window is spending error budget: the
// observed error ratio divided by the budget (1 − target). 1 means
// exactly on target; 0 means a clean window; values ≫ 1 mean the
// budget drains that many times faster than allowed.
func (s *SLOTracker) BurnRate(window time.Duration) float64 {
	ratio, _ := s.Availability(window) // an empty window reports ratio 1: no burn
	return (1 - ratio) / (1 - s.target)
}

// collect emits the SLO gauge families at scrape time.
func (s *SLOTracker) collect(e *obs.Emitter) {
	e.Float("router_slo_target", s.target)
	for _, win := range sloWindows {
		label := win.String()
		ratio, total := s.Availability(win)
		e.Float("router_slo_availability_ratio", ratio, "window", label)
		e.Int("router_slo_requests", total, "window", label)
		e.Float("router_slo_latency_p99_seconds", s.LatencyP99(win), "window", label)
		e.Float("router_slo_error_budget_burn_rate", s.BurnRate(win), "window", label)
	}
}
