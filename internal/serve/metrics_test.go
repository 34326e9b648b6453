package serve

import (
	"math"
	"strings"
	"testing"

	"pimcapsnet/internal/obs"
)

func TestHistogramQuantiles(t *testing.T) {
	h := obs.NewHistogram(1, 2, 4, 8)
	// 50 observations ≤1, 30 in (1,2], 15 in (2,4], 5 in (4,8].
	for i := 0; i < 50; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 30; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 15; i++ {
		h.Observe(3)
	}
	for i := 0; i < 5; i++ {
		h.Observe(6)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d, want 100", h.Count())
	}
	if got := h.Quantile(0.5); got <= 0 || got > 1 {
		t.Errorf("p50 %g outside first bucket (0, 1]", got)
	}
	if got := h.Quantile(0.95); got <= 2 || got > 4 {
		t.Errorf("p95 %g outside bucket (2, 4]", got)
	}
	if got := h.Quantile(0.99); got <= 4 || got > 8 {
		t.Errorf("p99 %g outside bucket (4, 8]", got)
	}
	if sum := h.Sum(); math.Abs(sum-(50*0.5+30*1.5+15*3+5*6)) > 1e-3 {
		t.Errorf("sum %g, want 145", sum)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := obs.NewHistogram(1, 2)
	h.Observe(100) // lands in +Inf, attributed to the largest bound
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("+Inf quantile %g, want capped at 2", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := obs.NewHistogram(1)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile %g, want 0", got)
	}
}

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.Requests.Inc()
	m.IncResponse(200)
	m.IncResponse(429)
	m.IncResponse(418) // not in the fixed set → "other"
	for _, size := range []float64{4, 8} {
		m.Batches.Inc()
		m.BatchSize.Observe(size)
		m.RoutingIterations.Add(3)
	}
	m.Latency.Observe(0.003)
	m.QueueDepth = func() int { return 5 }

	var sb strings.Builder
	m.WriteText(&sb)
	text := sb.String()
	for _, want := range []string{
		"capsnet_requests_total 1",
		`capsnet_responses_total{code="200"} 1`,
		`capsnet_responses_total{code="429"} 1`,
		`capsnet_responses_total{code="other"} 1`,
		"capsnet_queue_depth 5",
		"capsnet_batches_total 2",
		"capsnet_routing_iterations_total 6",
		`capsnet_request_latency_seconds{quantile="0.5"}`,
		`capsnet_request_latency_seconds_bucket{le="+Inf"} 1`,
		"capsnet_request_latency_seconds_count 1",
		`capsnet_batch_size_bucket{le="4"} 1`,
		`capsnet_batch_size_bucket{le="8"} 2`,
		"capsnet_batch_size_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestRobustnessCounters exercises the degradation-ladder counters and
// their exposition lines: recovered panics, watchdog-failed batches,
// exact-math routing fallbacks, and rejected checkpoints.
func TestRobustnessCounters(t *testing.T) {
	m := NewMetrics()
	if m.PanicsRecovered.Value()+m.WatchdogBatches.Value()+m.RoutingFallbacks.Value()+m.CheckpointRejections.Value() != 0 {
		t.Fatal("robustness counters must start at zero")
	}
	m.PanicsRecovered.Inc()
	m.PanicsRecovered.Inc()
	m.WatchdogBatches.Inc()
	m.RoutingFallbacks.Add(3)
	m.RoutingFallbacks.Add(1)
	m.CheckpointRejections.Inc()

	var sb strings.Builder
	m.WriteText(&sb)
	text := sb.String()
	for _, want := range []string{
		"capsnet_panics_recovered_total 2",
		"capsnet_watchdog_failed_batches_total 1",
		"capsnet_routing_exact_fallbacks_total 4",
		"capsnet_checkpoint_load_rejections_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}
