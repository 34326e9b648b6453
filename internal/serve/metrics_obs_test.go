package serve

import (
	"math"
	"strings"
	"sync"
	"testing"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/obs"
)

// TestHistogramObserveZero pins the sum fix: a zero observation must
// count AND contribute zero to the sum (the old guard silently dropped
// non-positive values from sumMicro, skewing _sum/_count means).
func TestHistogramObserveZero(t *testing.T) {
	h := obs.NewHistogram(1, 2)
	h.Observe(0)
	h.Observe(2)
	if h.Count() != 2 {
		t.Fatalf("count %d, want 2", h.Count())
	}
	if got := h.Sum(); got != 2 {
		t.Fatalf("sum %g, want 2 (zero observation contributes zero, not nothing)", got)
	}
}

// TestHistogramObserveNegativeClamps checks negatives (always an
// upstream bug for durations) clamp to zero instead of wrapping the
// uint64 sum.
func TestHistogramObserveNegativeClamps(t *testing.T) {
	h := obs.NewHistogram(1)
	h.Observe(-5)
	if h.Count() != 1 {
		t.Fatalf("count %d, want 1", h.Count())
	}
	if got := h.Sum(); got != 0 {
		t.Fatalf("sum %g, want 0 after clamping", got)
	}
	if got := h.BucketCounts()[0]; got != 1 {
		t.Fatalf("clamped value landed in buckets %v, want first", h.BucketCounts())
	}
}

// TestHistogramAllOverflow pins the +Inf-bucket quantile contract:
// when every observation exceeds the largest finite bound, quantiles
// report that bound (not a fabricated interpolation) and the overflow
// counter exposes the clipping.
func TestHistogramAllOverflow(t *testing.T) {
	h := obs.NewHistogram(1, 2)
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(q); got != 2 {
			t.Errorf("q%g = %g, want clipped to 2", q, got)
		}
	}
	if got := h.Overflow(); got != 10 {
		t.Errorf("Overflow() = %d, want 10", got)
	}
	if got := h.Sum(); got != 500 {
		t.Errorf("sum %g, want 500", got)
	}
}

// TestHistogramExactBound checks an observation equal to a bucket's
// upper bound lands in that bucket (le is inclusive, per Prometheus
// semantics).
func TestHistogramExactBound(t *testing.T) {
	h := obs.NewHistogram(1, 2, 4)
	h.Observe(2)
	if got := h.BucketCounts()[1]; got != 1 {
		t.Fatalf("Observe(2) landed in counts %v, want bucket le=2", h.BucketCounts())
	}
	if got := h.Overflow(); got != 0 {
		t.Fatalf("exact-bound observation counted as overflow")
	}
	h.Observe(4) // largest finite bound: still not overflow
	if got := h.Overflow(); got != 0 {
		t.Fatalf("largest-bound observation counted as overflow")
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// meaningful under -race (the CI race job) and double-checks totals.
func TestHistogramConcurrent(t *testing.T) {
	h := obs.NewHistogram(0.001, 0.01, 0.1, 1)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w%4) * 0.01)
				_ = h.Quantile(0.5)
				_ = h.Sum()
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count %d, want %d", got, workers*per)
	}
	wantSum := float64(per) * (0 + 0.01 + 0.02 + 0.03) * float64(workers) / 4
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum+1e-9 {
		t.Fatalf("sum %g, want %g", got, wantSum)
	}
}

// TestHistogramGoldenExposition is the golden test for the text
// exposition: exact output, unlabeled and labeled, including the
// quantile, bucket, sum, count, and overflow lines.
func TestHistogramGoldenExposition(t *testing.T) {
	r := obs.NewRegistry()
	plain := r.Histogram("x_seconds", 0.5, 1)
	labeled := r.HistogramVec("y_seconds", "stage", 0.5, 1).With("conv")
	for _, h := range []*obs.Histogram{plain, labeled} {
		h.Observe(0.25)
		h.Observe(0.25)
		h.Observe(0.75)
		h.Observe(3) // overflow
	}

	var sb strings.Builder
	r.WriteText(&sb)
	want := `x_seconds{quantile="0.5"} 0.5
x_seconds{quantile="0.95"} 1
x_seconds{quantile="0.99"} 1
x_seconds_bucket{le="0.5"} 2
x_seconds_bucket{le="1"} 3
x_seconds_bucket{le="+Inf"} 4
x_seconds_sum 4.25
x_seconds_count 4
x_seconds_overflow_total 1
y_seconds{stage="conv",quantile="0.5"} 0.5
y_seconds{stage="conv",quantile="0.95"} 1
y_seconds{stage="conv",quantile="0.99"} 1
y_seconds_bucket{stage="conv",le="0.5"} 2
y_seconds_bucket{stage="conv",le="1"} 3
y_seconds_bucket{stage="conv",le="+Inf"} 4
y_seconds_sum{stage="conv"} 4.25
y_seconds_count{stage="conv"} 4
y_seconds_overflow_total{stage="conv"} 1
`
	if sb.String() != want {
		t.Errorf("exposition:\ngot:\n%swant:\n%s", sb.String(), want)
	}
}

// TestMetricsExpositionGrammar validates every line the full /metrics
// endpoint emits — including runtime gauges and labeled stage
// histograms: each is a sample the one parser returns and that
// re-renders to itself, with a numeric value.
func TestMetricsExpositionGrammar(t *testing.T) {
	m := NewMetrics()
	m.Requests.Inc()
	m.IncResponse(200)
	m.BatchSize.Observe(4)
	m.Latency.Observe(0.003)
	m.Stages.With(StageQueueWait).Observe(0.0001)
	m.Stages.With(capsnet.StageRoutingIteration).Observe(0.0005)
	m.Stages.With(StageAdmission).Observe(0.0002)
	m.Stages.With("conv").Observe(0.001)

	var sb strings.Builder
	m.WriteText(&sb)
	text := sb.String()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	samples := obs.ParsePromText([]byte(text))
	if len(samples) != len(lines) {
		t.Fatalf("parser returned %d samples for %d lines", len(samples), len(lines))
	}
	for i, s := range samples {
		if _, err := s.Float(); err != nil || s.String() != lines[i] {
			t.Errorf("line %d not a well-formed sample: %q parsed as %q (value error %v)", i+1, lines[i], s, err)
		}
	}
	for _, want := range []string{
		`capsnet_stage_seconds_count{stage="queue_wait"} 1`,
		`capsnet_stage_seconds_count{stage="routing_iteration"} 1`,
		`capsnet_stage_seconds_count{stage="admission"} 1`,
		`capsnet_stage_seconds_count{stage="conv"} 1`,
		`capsnet_go_goroutines `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Stage families must come out sorted by label for scrape
	// stability.
	if strings.Index(text, `stage="admission"`) > strings.Index(text, `stage="conv"`) {
		t.Error("stage histograms not sorted by stage label")
	}
}
