package cluster

import "hash/fnv"

// Placer ranks ready replicas for a request with the paper's
// inter-vault score S = 1/(αE + βM) (Eqs. 6–12), generalized to
// replica placement:
//
//   - E (largest per-vault workload, Eqs. 7/9/11) is the candidate
//     replica's outstanding requests plus the one being placed — the
//     work the slowest "vault" would hold if the request landed there.
//   - M (inter-vault movement, Eqs. 8/10/12) is zero on the request
//     key's rendezvous-hash home replica and MovePenalty elsewhere:
//     over loopback HTTP nothing crosses a crossbar, but leaving the
//     home replica forfeits its arena/cache warmth and connection
//     reuse, which is the same locality cost in different units (see
//     DESIGN.md §8).
//
// Only the ratio β·MovePenalty/α decides a placement, so α = β = 1
// and MovePenalty carries the one degree of freedom, in
// outstanding-request units: maximizing S is minimizing E + M. That
// yields consistent-hash affinity with least-loaded spill — the home
// replica wins while its load excess stays within MovePenalty, and an
// overloaded home loses to an idler peer beyond that. MovePenalty
// +Inf is pure affinity; any value in (0, 1) is least-loaded with
// ties to the home, because E is a whole number of requests.
type Placer struct {
	// MovePenalty is the movement charge for leaving the home replica,
	// in outstanding requests. Default 2: spill only when the home
	// replica holds more than two extra requests — enough to keep
	// affinity sticky under even load without pinning traffic to a
	// stalled replica.
	MovePenalty float64
}

// DefaultMovePenalty is the default movement charge (see
// Placer.MovePenalty).
const DefaultMovePenalty = 2

// Key hashes a request body to its placement key. Equal bodies hash
// equal, so repeated classifications of the same image ride the same
// replica's warm state.
func Key(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// rendezvous returns the hash weight of placing key on the named
// replica (highest-random-weight hashing). Rendezvous hashing keeps
// the affinity map minimal-disruption under membership change: a
// replica leaving remaps only its own keys, exactly what drain-aware
// rebalancing needs.
func rendezvous(key uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [8]byte
	for i := range b {
		b[i] = byte(key >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// Home returns the key's affinity replica among candidates (the
// rendezvous-hash winner), or -1 for an empty slice.
func Home(key uint64, candidates []ReplicaInfo) int {
	best, bestW := -1, uint64(0)
	for i, r := range candidates {
		if w := rendezvous(key, r.Name); best == -1 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// Pick returns the index into candidates of the replica the request
// should land on: the one with the least cost E + M (Eq. 12's argmax
// with α = β = 1). Cost ties resolve to the higher rendezvous weight,
// the key's hash preference — the home first — so the choice is
// deterministic. Returns -1 for an empty slice.
func (p Placer) Pick(key uint64, candidates []ReplicaInfo) int {
	penalty := p.MovePenalty
	if penalty == 0 {
		penalty = DefaultMovePenalty
	}
	home := Home(key, candidates)
	best, bestCost, bestW := -1, 0.0, uint64(0)
	for i, r := range candidates {
		cost := outstanding(r.Load) + 1 // the request being placed
		if i != home {
			cost += penalty
		}
		if best != -1 && cost > bestCost {
			continue
		}
		if w := rendezvous(key, r.Name); best == -1 || cost < bestCost || w > bestW {
			best, bestCost, bestW = i, cost, w
		}
	}
	return best
}
