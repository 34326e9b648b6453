package obs

import (
	"sort"
	"strconv"
	"sync/atomic"
)

// Histogram is a fixed-bucket, lock-free histogram over a
// non-negative domain (latencies, sizes). Observations land in the
// first bucket whose upper bound is ≥ the value; the final implicit
// bucket is +Inf. Quantiles are estimated by linear interpolation
// inside the containing bucket, which is exact enough for p50/p95/p99
// dashboards on exponential bucket layouts. It lives in obs — the
// stdlib-only layer every tier imports — so the serving stack and the
// open-loop load generator (internal/loadgen) record into the same
// bucket machinery and their distributions merge exactly.
type Histogram struct {
	bounds   []float64       // ascending upper bounds, excluding +Inf
	counts   []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count    atomic.Uint64
	sumMicro atomic.Uint64 // Σ value, in millionths of a unit
}

// NewHistogram creates a histogram with the given ascending upper
// bounds.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must ascend")
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value. The histogram's domain is non-negative:
// zero is a legal observation (it lands in the first bucket and adds
// zero to the sum, so _sum stays consistent with _count·mean), and a
// negative value — always an upstream bug for durations and sizes —
// is clamped to zero rather than wrapping the uint64 sum around.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumMicro.Add(uint64(v*1e6 + 0.5))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations (microsecond-granular).
func (h *Histogram) Sum() float64 { return float64(h.sumMicro.Load()) / 1e6 }

// BucketCounts returns a snapshot of the per-bucket counts; the last
// element is the implicit +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Overflow returns the number of observations that exceeded the
// largest finite bucket bound (the +Inf bucket's count) — the
// companion counter that makes Quantile's tail clipping visible.
func (h *Histogram) Overflow() uint64 { return h.counts[len(h.bounds)].Load() }

// Quantile estimates the q-th quantile (0 < q < 1) from the bucket
// counts; see BucketQuantile. Check Overflow to see how many
// observations its tail clipping affected.
func (h *Histogram) Quantile(q float64) float64 {
	return BucketQuantile(h.bounds, h.BucketCounts(), q)
}

// BucketQuantile estimates the q-th quantile from per-bucket counts
// over ascending upper bounds (counts has one more element, the +Inf
// bucket) by linear interpolation inside the containing bucket. Ranks
// landing in the +Inf bucket cannot be interpolated — there is no
// finite upper bound to interpolate toward — so they report the
// largest finite bound. Returns 0 when empty.
func BucketQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	maxBound := bounds[len(bounds)-1]
	rank := q * float64(total)
	var cum float64
	for i, count := range counts {
		n := float64(count)
		if n == 0 || cum+n < rank {
			cum += n
			continue
		}
		if i == len(bounds) {
			return maxBound // +Inf bucket: clip, don't interpolate
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*(rank-cum)/n
	}
	return maxBound
}

// write emits the histogram's quantile, cumulative bucket, sum, count
// and overflow lines under name; labels (key, value pairs) lead every
// line's label block.
func (h *Histogram) write(e *Emitter, name string, labels ...string) {
	with := func(key, val string) []string { return append(labels[:len(labels):len(labels)], key, val) }
	for _, q := range []float64{0.5, 0.95, 0.99} {
		e.Float(name, h.Quantile(q), with("quantile", formatBound(q))...)
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		e.Int(name+"_bucket", cum, with("le", formatBound(b))...)
	}
	e.Int(name+"_bucket", cum+h.Overflow(), with("le", "+Inf")...)
	e.Float(name+"_sum", h.Sum(), labels...)
	e.Int(name+"_count", h.count.Load(), labels...)
	e.Int(name+"_overflow_total", h.Overflow(), labels...)
}

func formatBound(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
