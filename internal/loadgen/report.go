package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"pimcapsnet/internal/obs"
)

// SweepPoint is one offered rate's summary in a latency/throughput
// sweep.
type SweepPoint struct {
	OfferedRate  float64 `json:"offered_rate"`
	AchievedRate float64 `json:"achieved_rate"`
	Availability float64 `json:"availability"`
	P50          float64 `json:"p50_seconds"`
	P99          float64 `json:"p99_seconds"`
	P999         float64 `json:"p999_seconds"`
}

// PointFromResult condenses one run into a sweep point.
func PointFromResult(offeredRate float64, r *Result) SweepPoint {
	return SweepPoint{
		OfferedRate:  offeredRate,
		AchievedRate: r.AchievedRate(),
		Availability: r.Availability(),
		P50:          r.Latency.Quantile(0.5),
		P99:          r.Latency.Quantile(0.99),
		P999:         r.Latency.Quantile(0.999),
	}
}

// What "still healthy" means when walking a sweep toward saturation:
// availability at least kneeMinAvailability, and a p99 within
// kneeP99Factor× the lowest-rate point's, floored at kneeP99Floor
// seconds so a sub-millisecond base p99 does not make the multiple a
// meaninglessly tight bound.
const (
	kneeMinAvailability = 0.99
	kneeP99Factor       = 5
	kneeP99Floor        = 0.05
)

// FindKnee locates the knee of the latency/throughput curve: the
// highest offered rate (scanning points in ascending rate order)
// whose availability and p99 are still healthy, just below the
// terminal run of saturated points. Real saturation is terminal —
// once offered load exceeds capacity, every higher rate is also
// saturated — so an unhealthy point bracketed by healthy higher rates
// is a measurement hiccup (a scheduler stall on a shared runner, a GC
// pause) and is skipped, not treated as the knee; without this, one
// transient spike mid-sweep would collapse the reported knee and flip
// the CI gate on noise. It returns the knee rate, the index of the
// knee point, and whether the sweep never saturated (the knee is then
// a lower bound: the true capacity lies beyond the highest swept
// rate). Index −1 means the whole sweep was saturated.
func FindKnee(points []SweepPoint) (rate float64, idx int, saturatedNowhere bool) {
	pts := append([]SweepPoint(nil), points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].OfferedRate < pts[j].OfferedRate })
	if len(pts) == 0 {
		return 0, -1, false
	}
	budget := max(kneeP99Factor*pts[0].P99, kneeP99Floor)
	saturated := func(p SweepPoint) bool {
		return p.Availability < kneeMinAvailability || p.P99 > budget
	}
	// t is the start of the terminal saturated run (len if none).
	t := len(pts)
	for t > 0 && saturated(pts[t-1]) {
		t--
	}
	if t == 0 {
		return 0, -1, false
	}
	return pts[t-1].OfferedRate, t - 1, t == len(pts)
}

// StageShare is one stage of the server's Figure-3-style
// decomposition over the load window: how much forward-pass/pipeline
// time the stage accumulated and its share of the total.
type StageShare struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// ParseStageSums extracts capsnet_stage_seconds_sum{stage=...} totals
// from a Prometheus text exposition (a replica's /metrics or the
// router's merged /metrics/fleet).
func ParseStageSums(metrics string) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range obs.ParsePromText([]byte(metrics)).Family("capsnet_stage_seconds_sum") {
		// Fleet expositions also re-export every replica's series with a
		// replica label; the merged series carries none.
		if v, err := s.Float(); err == nil && s.Label("replica") == "" {
			out[s.Label("stage")] = v
		}
	}
	return out
}

// StageShares diffs two stage-sum scrapes (before and after the load
// window) into the decomposition of where server time went during the
// window, sorted by descending share. Stages that went backwards
// (server restarted mid-run) are dropped.
func StageShares(before, after map[string]float64) []StageShare {
	var total float64
	var out []StageShare
	for stage, b := range after {
		d := b - before[stage]
		if d > 0 {
			out = append(out, StageShare{Stage: stage, Seconds: d})
			total += d
		}
	}
	for i := range out {
		if total > 0 {
			out[i].Share = out[i].Seconds / total
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds > out[j].Seconds {
			return true
		}
		if out[i].Seconds < out[j].Seconds {
			return false
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// Report is the machine-readable outcome of a capsnet-load run. The
// slo-gate writes one per side: SLO_base.json for the parent,
// SLO_pr.json for the change, which internal/slogate compares.
type Report struct {
	// Target names the tier driven (serve | router) and Shape/Seed/
	// DurationSeconds identify the replayed schedule.
	Target          string  `json:"target"`
	Shape           string  `json:"shape"`
	Seed            int64   `json:"seed"`
	DurationSeconds float64 `json:"duration_seconds"`
	// ReferenceRate is the offered rate (req/s) the SLO numbers below
	// were measured at.
	ReferenceRate float64 `json:"reference_rate"`
	Offered       int     `json:"offered"`
	Availability  float64 `json:"availability"`
	P50           float64 `json:"p50_seconds"`
	P99           float64 `json:"p99_seconds"`
	P999          float64 `json:"p999_seconds"`
	// MaxLateness reports generator fidelity (see Result.MaxLateness).
	MaxLateness float64 `json:"max_lateness_seconds"`
	// Codes maps status code (stringified, "0" = transport error) to
	// count over the reference run.
	Codes map[string]int `json:"codes,omitempty"`
	// KneeRate is where the latency/throughput curve bends (0 when no
	// sweep ran); KneeUnsaturated marks a sweep that never saturated,
	// making KneeRate a lower bound.
	KneeRate        float64      `json:"knee_rate"`
	KneeUnsaturated bool         `json:"knee_unsaturated,omitempty"`
	Sweep           []SweepPoint `json:"sweep,omitempty"`
	// Stages is the server-side Figure-3 decomposition over the
	// reference window, scraped from /metrics before and after.
	Stages []StageShare `json:"stages,omitempty"`
}

// LoadReport reads a report from disk.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("loadgen: parsing %s: %w", path, err)
	}
	return &r, nil
}

// SaveReport writes a report as deterministic indented JSON.
func SaveReport(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
