package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"pimcapsnet/internal/obs"
)

// fleetFetchTimeout bounds one replica fetch during a fleet trace
// merge or metrics scrape — debug endpoints must answer promptly even
// with a hung replica in the pool.
const fleetFetchTimeout = 2 * time.Second

// handleFleetTrace merges one trace ID's span fragments from the
// router and every replica into a single Chrome trace: the router's
// route/attempt spans and each replica's stage spans land on distinct
// process tracks ("router", "replica-0..N"), clock-aligned via the
// fragments' wall-clock timestamps. Replicas that are down or retain
// no spans for the ID simply contribute nothing — a partial merge
// from a degraded fleet is exactly when this endpoint matters.
func (d *Dispatcher) handleFleetTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("trace")
	if id == "" {
		http.Error(w, "trace query parameter required", http.StatusBadRequest)
		return
	}
	var frags []obs.TraceFragment
	for _, t := range d.requests.FindTraces(id) {
		f := obs.FragmentFromTrace(t)
		f.Process = "router"
		frags = append(frags, f)
	}
	for i, rep := range d.cfg.Pool.Snapshot() {
		doc, err := d.fetchFragments(r.Context(), rep, id)
		if err != nil {
			continue
		}
		process := fmt.Sprintf("replica-%d", i)
		for _, f := range doc.Fragments {
			f.Process = process
			frags = append(frags, f)
		}
	}
	if len(frags) == 0 {
		http.Error(w, "no spans retained for trace "+id, http.StatusNotFound)
		return
	}
	obs.SortFragmentSpans(frags)
	w.Header().Set("Content-Type", "application/json")
	obs.MergeFragments(frags).WriteJSON(w)
}

// fetchFragments pulls one replica's span fragments for a trace ID.
func (d *Dispatcher) fetchFragments(ctx context.Context, rep ReplicaInfo, id string) (obs.FragmentDoc, error) {
	var doc obs.FragmentDoc
	err := d.fetch(ctx, rep, "/debug/requests/trace?trace="+url.QueryEscape(id)+"&format=spans", func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&doc)
	})
	return doc, err
}

// fetch GETs one path from a replica under fleetFetchTimeout and hands
// a 200 response's body to read.
func (d *Dispatcher) fetch(ctx context.Context, rep ReplicaInfo, path string, read func(io.Reader) error) error {
	ctx, cancel := context.WithTimeout(ctx, fleetFetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := d.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s GET %s: status %d", rep.Name, path, resp.StatusCode)
	}
	return read(resp.Body)
}

// handleFleetMetrics serves the aggregated cluster exposition: every
// replica's /metrics scraped and re-exported with a {replica} label,
// histogram families merged exactly (identical fixed bucket layouts
// sum losslessly), followed by the router's own families and the SLO
// gauges — one scrape target for the whole fleet.
func (d *Dispatcher) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	snap := d.cfg.Pool.Snapshot()
	scrapes := make([]ReplicaMetrics, 0, len(snap))
	failed := 0
	for _, rep := range snap {
		data, err := d.fetchMetrics(r.Context(), rep)
		if err != nil {
			failed++
			continue
		}
		scrapes = append(scrapes, ReplicaMetrics{Name: rep.Name, Samples: obs.ParsePromText(data)})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteFleetMetrics(w, scrapes, failed)
	d.cfg.Metrics.WriteText(w)
}

// maxReplicaMetricsBytes caps one replica's /metrics body in a fleet
// scrape at some forty times a busy replica's exposition; a larger
// body is a scrape failure, not the router's memory.
const maxReplicaMetricsBytes = 1 << 20

// fetchMetrics pulls one replica's raw /metrics exposition.
func (d *Dispatcher) fetchMetrics(ctx context.Context, rep ReplicaInfo) (data []byte, err error) {
	err = d.fetch(ctx, rep, "/metrics", func(body io.Reader) error {
		data, err = io.ReadAll(io.LimitReader(body, maxReplicaMetricsBytes+1))
		if err == nil && len(data) > maxReplicaMetricsBytes {
			err = fmt.Errorf("cluster: %s /metrics body exceeds %d bytes", rep.Name, maxReplicaMetricsBytes)
		}
		return err
	})
	return data, err
}
