package main

import (
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pimcapsnet/internal/capsnet"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opCounts is the sent/ok/failed/shed accounting of one pass, in calls.
type opCounts struct {
	Sent   int `json:"ops_sent"`
	OK     int `json:"ops_ok"`
	Failed int `json:"ops_failed"`
	Shed   int `json:"ops_shed"`
}

func countOps(ops []opRecord) opCounts {
	c := opCounts{Sent: len(ops)}
	for _, r := range ops {
		switch r.status {
		case statusOK:
			c.OK++
		case http.StatusTooManyRequests:
			c.Shed++
		default:
			c.Failed++
		}
	}
	return c
}

// okLatencies returns the latencies of the calls that returned the
// right answer, in ms: in the order the calls were due, and ascending.
func okLatencies(ops []opRecord) (inOrder, sorted []float64) {
	byDue := append([]opRecord(nil), ops...)
	sort.SliceStable(byDue, func(i, j int) bool { return byDue[i].due < byDue[j].due })
	for _, r := range byDue {
		if r.status == statusOK {
			inOrder = append(inOrder, ms(r.latency()))
		}
	}
	sorted = append([]float64(nil), inOrder...)
	sort.Float64s(sorted)
	return inOrder, sorted
}

// endToEnd computes what a user of the system sees. An op is one image
// classified; a call carries spec.batch of them.
func endToEnd(spec workloadSpec, p *pass, setupS, rssMB float64) metricSet {
	m := metricSet{}
	counts := countOps(p.ops)
	inOrder, lat := okLatencies(p.ops)
	okImages := float64(counts.OK * spec.batch)
	within := sort.SearchFloat64s(lat, math.Nextafter(spec.limitMs, math.Inf(1)))
	m.set("throughput_rps", okImages/p.window.Seconds(), "1/s")
	m.set("lat_p50_ms", segmentedPercentile(inOrder, 0.50), "ms")
	m.set("lat_p90_ms", segmentedPercentile(inOrder, 0.90), "ms")
	m.set("slo_share", float64(within)/float64(counts.Sent), "share")
	m.set("ok_share", float64(counts.OK)/float64(counts.Sent), "share")
	m.set("cpu_ms_per_op", ms(p.selfCPU+p.replicaCPU)/okImages, "ms")
	m.set("peak_rss_mb", rssMB, "MB")
	m.set("setup_s", setupS, "s")
	return m
}

// forwardStages are the direct children of a forward pass, in order.
var forwardStages = []string{
	capsnet.StageConv, capsnet.StagePrimaryCaps, capsnet.StagePredictionVectors,
	capsnet.StageRoutingIteration, capsnet.StageFiniteGuard, capsnet.StageLengths,
}

var routingStages = []string{
	capsnet.StageRoutingSoftmax, capsnet.StageRoutingAggregate, capsnet.StageRoutingAgreement,
}

// stageTotals is the busy time per stage over a pass, in seconds, from
// whichever source the workload has: the benchmark's own spans
// (offline) or the server's capsnet_stage_seconds histograms.
type stageTotals struct {
	seconds  map[string]float64
	forwards float64 // forward passes
	images   float64 // images those passes classified
}

func stageTotalsFromSpans(spans []span, batch int) stageTotals {
	dur, count := sumByName(spans)
	st := stageTotals{seconds: map[string]float64{}, forwards: float64(count["forward"])}
	st.images = st.forwards * float64(batch)
	for name, d := range dur {
		st.seconds[name] = d.Seconds()
	}
	return st
}

func stageTotalsFromScrape(d expo) stageTotals {
	st := stageTotals{seconds: map[string]float64{}}
	for series, v := range d.withPrefix(`capsnet_stage_seconds_sum{stage="`) {
		name := strings.TrimSuffix(strings.TrimPrefix(series, `capsnet_stage_seconds_sum{stage="`), `"}`)
		st.seconds[name] = v
	}
	st.forwards = d[`capsnet_stage_seconds_count{stage="forward"}`]
	st.images = d["capsnet_batch_size_sum"]
	return st
}

// perLayer computes the per-layer table from the untraced pass a and
// the traced pass b of one run.
func perLayer(t *target, a, b *pass, host hostCalibration) metricSet {
	m := metricSet{}
	spec := t.spec

	var st stageTotals
	if spec.kind == kindOffline {
		st = stageTotalsFromSpans(b.spans, spec.batch)
	} else {
		st = stageTotalsFromScrape(b.serve)
	}
	perForward := func(stage string) float64 { return 1e3 * st.seconds[stage] / st.forwards }
	for _, stage := range append(append([]string{}, forwardStages...), routingStages...) {
		m.set("capsnet."+stage+"_ms", perForward(stage), "ms")
	}
	attributed := 0.0
	for _, stage := range forwardStages {
		attributed += st.seconds[stage]
	}
	m.set("capsnet.forward_ms", perForward("forward"), "ms")
	m.set("capsnet.forward_self_ms", 1e3*(st.seconds["forward"]-attributed)/st.forwards, "ms")
	m.set("capsnet.forward_ms_per_image", 1e3*st.seconds["forward"]/st.images, "ms")

	predMACs, primaryMACs, routingBytes := computedWork(models[spec.model])
	m.set("capsnet.pred_gmacs", predMACs*st.images/st.seconds[capsnet.StagePredictionVectors]/1e9, "GMAC/s")
	m.set("capsnet.primary_gmacs", primaryMACs*st.images/st.seconds[capsnet.StagePrimaryCaps]/1e9, "GMAC/s")
	m.set("capsnet.routing_gbs", routingBytes*st.images/st.seconds[capsnet.StageRoutingIteration]/1e9, "GB/s")

	if spec.kind == kindOffline {
		m.set("capsnet.partition_b_share", float64(b.partB)/st.forwards, "share")
		m.set("capsnet.arena_mb", float64(t.network.ArenaBytes())/1e6, "MB")
		m.set("capsnet.exact_fallbacks", float64(t.network.RoutingFallbacks()), "count")
		m.set("capsnet.allocs_per_forward", float64(a.mallocs)/float64(len(a.ops)), "count")
	} else {
		partB := b.serve[`capsnet_routing_partition_total{dim="batch"}`]
		partH := b.serve[`capsnet_routing_partition_total{dim="hcaps"}`]
		m.set("capsnet.partition_b_share", partB/(partB+partH), "share")
		m.set("capsnet.arena_mb", b.serveEnd["capsnet_arena_bytes"]/1e6, "MB")
		m.set("capsnet.exact_fallbacks", b.serve["capsnet_routing_exact_fallbacks_total"], "count")
		m.set("capsnet.allocs_per_forward", 0, "count")
	}

	m.set("fp32.exp_exact_ns", host.expExactNs, "ns")
	m.set("fp32.exp_pe_ns", host.expPENs, "ns")
	m.set("fp32.invsqrt_exact_ns", host.invSqrtExactNs, "ns")
	m.set("fp32.invsqrt_pe_ns", host.invSqrtPENs, "ns")
	m.set("host.fma_gmacs", host.fmaGMACs, "GMAC/s")
	m.set("host.triad_gbs", host.triadGBs, "GB/s")
	m.set("host.nproc", float64(runtime.NumCPU()), "count")
	m.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")

	inOrder, lat := okLatencies(b.ops)
	p50, latMean := segmentedPercentile(inOrder, 0.50), mean(lat)
	serveLayer(m, b.serve, latMean)
	clusterLayer(m, t, b, latMean)

	counts := countOps(b.ops)
	maxLate := time.Duration(0)
	for _, r := range b.ops {
		if l := r.lateness(); l > maxLate {
			maxLate = l
		}
	}
	m.set("client.samples", float64(len(lat)), "count")
	m.set("client.lat_p99_ms", supportedPercentile(lat, 0.99), "ms")
	m.set("client.lat_max_ms", percentile(lat, 1), "ms")
	m.set("client.max_lateness_ms", ms(maxLate), "ms")
	m.set("client.offered_rps", float64(counts.Sent*spec.batch)/b.window.Seconds(), "1/s")
	m.set("client.fail_share", float64(counts.Sent-counts.OK)/float64(counts.Sent), "share")

	untracedInOrder, _ := okLatencies(a.ops)
	untraced := segmentedPercentile(untracedInOrder, 0.50)
	m.set("obs.trace_overhead_share", (p50-untraced)/untraced, "share")
	return m
}

// serveLayer fills the serve.* metrics from a serve-layer exposition
// delta (all zero for the offline workload, which has no server).
func serveLayer(m metricSet, d expo, clientMean float64) {
	stageMs := func(stage string) float64 {
		mean, _ := d.mean("capsnet_stage_seconds", `{stage="`+stage+`"}`)
		return 1e3 * mean
	}
	sum := 0.0
	for _, stage := range []string{"admission", "queue_wait", "batch_assembly", "forward", "encode"} {
		v := stageMs(stage)
		m.set("serve."+stage+"_ms", v, "ms")
		sum += v
	}
	latMean, _ := d.mean("capsnet_request_latency_seconds", "")
	latMean *= 1e3
	batchMean, batches := d.mean("capsnet_batch_size", "")
	m.set("serve.batch_size_mean", batchMean, "count")
	m.set("serve.batches", batches, "count")
	m.set("serve.server_lat_mean_ms", latMean, "ms")
	wire, gap := 0.0, 0.0
	if latMean > 0 {
		// Derived, not measured: a difference of two means taken on
		// different clocks, and per-batch forward means standing in for
		// per-request ones.
		wire, gap = clientMean-latMean, math.Abs(sum-latMean)/latMean
	}
	m.set("serve.wire_ms_mean", wire, "ms")
	m.set("serve.stage_sum_gap_share", gap, "share")
	m.set("serve.shed_429", d[`capsnet_responses_total{code="429"}`], "count")
	m.set("serve.expired_504", d[`capsnet_responses_total{code="504"}`], "count")
	m.set("serve.err_5xx", d[`capsnet_responses_total{code="500"}`]+d[`capsnet_responses_total{code="503"}`], "count")
	brownout := 0.0
	for series, v := range d.withPrefix("capsnet_brownout_requests_total{") {
		if !strings.Contains(series, `level="0"`) {
			brownout += v
		}
	}
	m.set("serve.brownout_requests", brownout, "count")
}

// clusterLayer fills the cluster.* metrics from the dispatcher's
// exposition delta and the manager's snapshot (all zero without a
// router).
func clusterLayer(m metricSet, t *target, p *pass, clientMean float64) {
	d := p.router
	perReplica := map[string]float64{}
	attempts := 0.0
	for series, v := range d.withPrefix("router_replica_requests_total{") {
		_, rest, _ := strings.Cut(series, `replica="`)
		name, _, _ := strings.Cut(rest, `"`)
		perReplica[name] += v
		attempts += v
	}
	imbalance := 0.0
	if attempts > 0 {
		most := 0.0
		for _, v := range perReplica {
			most = math.Max(most, v)
		}
		imbalance = most / (attempts / float64(len(perReplica)))
	}
	restarts := 0.0
	if t.manager != nil {
		for _, r := range t.manager.Snapshot() {
			restarts += float64(r.Restarts)
		}
	}
	hop := 0.0
	if replicaMean, n := p.serve.mean("capsnet_request_latency_seconds", ""); t.manager != nil && n > 0 {
		hop = clientMean - 1e3*replicaMean
	}
	routerCPU := 0.0
	if t.manager != nil {
		routerCPU = ms(p.selfCPU) / float64(countOps(p.ops).OK)
	}
	m.set("cluster.attempts_per_request", attempts/float64(len(p.ops)), "count")
	m.set("cluster.retries", d["router_retries_total"], "count")
	m.set("cluster.hedges", d["router_hedges_total"], "count")
	m.set("cluster.hedges_skipped", d["router_hedges_skipped_total"], "count")
	m.set("cluster.deadlines_exhausted", d["router_deadline_exhausted_total"], "count")
	m.set("cluster.restarts", restarts, "count")
	m.set("cluster.replica_imbalance", imbalance, "ratio")
	m.set("cluster.hop_ms_mean", hop, "ms")
	m.set("cluster.router_cpu_ms_per_op", routerCPU, "ms")
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
