package cluster

import (
	"io"
	"sort"
	"strconv"
	"strings"

	"pimcapsnet/internal/obs"
)

// ReplicaMetrics is one replica's parsed /metrics scrape.
type ReplicaMetrics struct {
	Name    string
	Samples obs.PromSamples
}

// histogramSuffixes are the component families one fixed-bucket
// histogram exposes; the merged fleet view re-derives each by exact
// summation (identical bucket layouts across replicas — every replica
// runs the same binary — make bucket-wise addition lossless).
var histogramSuffixes = []string{"_bucket", "_sum", "_count", "_overflow_total"}

// isHistogramPart reports whether the sample is a component of one of
// the families that have _bucket samples. A `le` label marks bucket
// lines; _sum / _count / _overflow_total attach by name.
func isHistogramPart(s obs.PromSample, bucketFamilies map[string]bool) bool {
	for _, suf := range histogramSuffixes {
		base := strings.TrimSuffix(s.Name, suf)
		if base != s.Name && bucketFamilies[base] && (suf != "_bucket" || s.Label("le") != "") {
			return true
		}
	}
	return false
}

// withoutReplica copies a label list minus any replica label.
func withoutReplica(labels []obs.PromLabel) []obs.PromLabel {
	kept := make([]obs.PromLabel, 0, len(labels))
	for _, l := range labels {
		if l.Key != "replica" {
			kept = append(kept, l)
		}
	}
	return kept
}

// mergeKey canonicalizes a sample's labels (minus any replica label)
// for cross-replica grouping.
func mergeKey(labels []obs.PromLabel) string {
	kept := withoutReplica(labels)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Key < kept[j].Key })
	return obs.PromSample{Labels: kept}.Series()
}

// mergedSeries accumulates one merged output line.
type mergedSeries struct {
	// sample carries the name and labels of the first contributing
	// sample, replica dropped.
	sample obs.PromSample
	value  float64
	// intSum tracks whether every contribution parsed as an unsigned
	// integer, so counters re-render without a float exponent.
	intSum uint64
	isInt  bool
}

// WriteFleetMetrics emits the aggregated cluster view: every replica
// sample re-exported with a leading {replica} label, histogram
// component families additionally merged by exact summation under
// their bare names (the merged family keeps the replica-local name,
// distinguished by the absence of the replica label), plus scrape
// bookkeeping.
func WriteFleetMetrics(w io.Writer, scrapes []ReplicaMetrics, failed int) {
	// Pass 1: which families are histograms anywhere in the fleet.
	bucketFamilies := make(map[string]bool)
	for _, sc := range scrapes {
		for _, s := range sc.Samples {
			if strings.HasSuffix(s.Name, "_bucket") && s.Label("le") != "" {
				bucketFamilies[strings.TrimSuffix(s.Name, "_bucket")] = true
			}
		}
	}

	// Pass 2: merge histogram components, in first-seen order.
	byKey := make(map[string]*mergedSeries)
	var merged []*mergedSeries
	for _, sc := range scrapes {
		for _, s := range sc.Samples {
			if !isHistogramPart(s, bucketFamilies) {
				continue
			}
			key := s.Name + mergeKey(s.Labels)
			ms, ok := byKey[key]
			if !ok {
				ms = &mergedSeries{sample: obs.PromSample{Name: s.Name, Labels: withoutReplica(s.Labels)}, isInt: true}
				byKey[key] = ms
				merged = append(merged, ms)
			}
			if u, err := strconv.ParseUint(s.Value, 10, 64); err == nil {
				ms.intSum += u
				ms.value += float64(u)
			} else if f, err := s.Float(); err == nil {
				ms.isInt = false
				ms.value += f
			}
		}
	}

	var e obs.Emitter
	e.Int("router_fleet_replicas_scraped", uint64(len(scrapes)))
	e.Int("router_fleet_scrape_failures", uint64(failed))
	for _, ms := range merged {
		if ms.isInt {
			ms.sample.Value = strconv.FormatUint(ms.intSum, 10)
		} else {
			ms.sample.Value = strconv.FormatFloat(ms.value, 'g', -1, 64)
		}
		e.Sample(ms.sample)
	}
	for _, sc := range scrapes {
		for _, s := range sc.Samples {
			s.Labels = append([]obs.PromLabel{{Key: "replica", Val: sc.Name}}, s.Labels...)
			e.Sample(s)
		}
	}
	w.Write(e.Bytes())
}
