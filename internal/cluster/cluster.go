// Package cluster is the sharded replica tier: it lifts PIM-CapsNet's
// inter-vault workload distribution model (paper §5.1, Eqs. 6–12) from
// the vault model (internal/distribute) to request placement across N
// capsnet-serve replicas running as real subprocesses.
//
// The analogy is exact in structure: a vault becomes a replica, the
// largest-per-vault workload E becomes a replica's outstanding
// requests, and the inter-vault data movement M becomes the warmth a
// request forfeits by leaving its affinity replica — over loopback
// HTTP nothing is literally "moved", but a request landing on a cold
// replica misses that replica's connection pool, Go scheduler state,
// and the scratch-arena pages its twin requests keep hot, which is the
// same locality cost the paper charges as crossbar traffic. Placement
// maximizes S = 1/(αE + βM) per request — with α = β = 1, since only
// the ratio β·M/α matters and MovePenalty carries it — which
// degenerates to consistent-hash affinity when loads are even and to
// least-loaded spill when the affinity replica falls behind.
//
// Three cooperating pieces:
//
//   - Manager owns the replica subprocesses: spawn → wait /readyz →
//     serve → drain → restart-on-crash with exponential backoff. It
//     probes each replica's /readyz for the machine-readable load body
//     (wire.Load) and publishes snapshots through the Pool
//     interface.
//   - Placer ranks ready replicas for a request key with the Eq. 6–12
//     scoring (rendezvous hashing supplies the affinity home).
//   - Dispatcher is the HTTP front: it forwards classify requests to
//     the placed replica with a per-request retry budget, a hedging
//     budget for stalled attempts, Retry-After honoring on replica
//     429s, and response validation that turns corrupt replica output
//     into a retry instead of a client-visible error.
//
// The package is deliberately model-free: it never imports capsnet,
// tensor, or serve (enforced by layercheck) — the router moves opaque
// bytes between processes and understands only the serving HTTP
// protocol, declared in internal/wire (the /readyz load body,
// /v1/classify, X-Deadline), plus obs's X-Trace-Id.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/wire"
)

// outstanding is a replica's queued-plus-running request count: the
// E term (largest per-vault workload, Eqs. 7/9/11) of the placement
// score.
func outstanding(l wire.Load) float64 { return float64(l.QueueDepth + l.Inflight) }

// ReplicaInfo is one replica's published snapshot.
type ReplicaInfo struct {
	// Name is the stable replica identity ("r0", "r1", ...), used as
	// the rendezvous-hash site and the {replica=...} metric label.
	Name string `json:"name"`
	// URL is the replica's base URL (http://127.0.0.1:port), empty
	// while the replica is between processes.
	URL string `json:"url"`
	// PID is the replica process id (0 while down) — exposed so chaos
	// drills and operators can address the process.
	PID int `json:"pid"`
	// Ready reports whether the replica is currently dispatchable:
	// process up, /readyz answering 200.
	Ready bool `json:"ready"`
	// Restarts counts how many times the manager restarted the replica
	// after a crash.
	Restarts uint64 `json:"restarts"`
	// Load is the last probed load body (zero value while down).
	Load wire.Load `json:"load"`
}

// Pool is the dispatcher's view of the replica set. Manager implements
// it; tests substitute static pools over httptest servers.
type Pool interface {
	// Snapshot returns every replica's current state, ready or not.
	Snapshot() []ReplicaInfo
}

// Ready filters a pool snapshot down to dispatchable replicas.
func Ready(p Pool) []ReplicaInfo {
	all := p.Snapshot()
	ready := make([]ReplicaInfo, 0, len(all))
	for _, r := range all {
		if r.Ready && r.URL != "" {
			ready = append(ready, r)
		}
	}
	return ready
}

// probeReadyz fetches url/readyz and decodes the load body. The
// boolean reports dispatchability: a 503 body still parses (a draining
// replica reports its load) but is not ready. Any transport or decode
// error means not ready.
func probeReadyz(client *http.Client, url string) (wire.Load, bool, error) {
	resp, err := client.Get(url + "/readyz")
	if err != nil {
		return wire.Load{}, false, err
	}
	defer resp.Body.Close()
	var l wire.Load
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		return wire.Load{}, false, fmt.Errorf("cluster: decoding /readyz body: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return l, true, nil
	case http.StatusServiceUnavailable:
		return l, false, nil
	default:
		return wire.Load{}, false, fmt.Errorf("cluster: /readyz status %d", resp.StatusCode)
	}
}

// WaitReady polls p until at least n replicas are ready or ctx is
// done — the startup barrier callers use before opening traffic.
// Callers bound the wait with context.WithTimeout (or cancel it to
// abandon startup); like ctx, the poll runs on obs.Wall.
func WaitReady(ctx context.Context, p Pool, n int) error {
	poll := obs.Wall.NewTimer(25 * time.Millisecond)
	defer poll.Stop()
	for {
		if len(Ready(p)) >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: %d replicas not ready: %w", n, ctx.Err())
		case <-poll.C():
			poll.Reset(25 * time.Millisecond)
		}
	}
}
