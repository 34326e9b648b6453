package cluster

import (
	"fmt"
	"math"
	"testing"
)

func mkReplicas(n int, outstanding ...int) []ReplicaInfo {
	out := make([]ReplicaInfo, n)
	for i := range out {
		out[i] = ReplicaInfo{Name: fmt.Sprintf("r%d", i), URL: "http://x", Ready: true}
		if i < len(outstanding) {
			out[i].Load.QueueDepth = outstanding[i]
		}
	}
	return out
}

func TestKeyDeterministic(t *testing.T) {
	a, b := Key([]byte("image-bytes")), Key([]byte("image-bytes"))
	if a != b {
		t.Fatalf("Key not deterministic: %x vs %x", a, b)
	}
	if Key([]byte("other")) == a {
		t.Fatalf("distinct bodies collided (possible but astronomically unlikely for these fixtures)")
	}
}

func TestHomeStableAcrossLoad(t *testing.T) {
	reps := mkReplicas(3)
	key := Key([]byte("some request"))
	h := Home(key, reps)
	if h < 0 || h >= len(reps) {
		t.Fatalf("Home = %d out of range", h)
	}
	// Load must not move the home: affinity is pure hash.
	loaded := mkReplicas(3, 100, 100, 100)
	if g := Home(key, loaded); g != h {
		t.Fatalf("Home moved with load: %d -> %d", h, g)
	}
}

func TestHomeMinimalDisruption(t *testing.T) {
	// Rendezvous property: removing one replica remaps only the keys it
	// owned; every other key keeps its home.
	reps := mkReplicas(4)
	moved, kept := 0, 0
	for i := 0; i < 500; i++ {
		key := Key([]byte(fmt.Sprintf("req-%d", i)))
		before := reps[Home(key, reps)].Name
		if before == "r3" {
			continue // its keys must remap, nothing to check
		}
		after := reps[:3][Home(key, reps[:3])].Name
		if after == before {
			kept++
		} else {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed replica changed home (kept %d)", moved, kept)
	}
	if kept == 0 {
		t.Fatalf("degenerate fixture: no keys homed on surviving replicas")
	}
}

func TestPickPrefersHomeWhenEven(t *testing.T) {
	reps := mkReplicas(3, 2, 2, 2)
	var p Placer
	for i := 0; i < 50; i++ {
		key := Key([]byte(fmt.Sprintf("req-%d", i)))
		if got, home := p.Pick(key, reps), Home(key, reps); got != home {
			t.Fatalf("key %d: Pick=%d, want home %d under even load", i, got, home)
		}
	}
}

func TestPickSpillsFromOverloadedHome(t *testing.T) {
	// With MovePenalty=2, the home replica loses once its outstanding
	// excess exceeds 2: cost_home = E_h+1 vs cost_peer = E_p+1+2.
	var key uint64
	reps := mkReplicas(3)
	for i := 0; ; i++ {
		key = Key([]byte(fmt.Sprintf("probe-%d", i)))
		if Home(key, reps) == 0 {
			break
		}
	}
	var p Placer
	cases := []struct {
		homeLoad int
		wantHome bool
	}{
		{0, true},  // idle home wins
		{2, true},  // excess == MovePenalty: tie resolves to home
		{3, false}, // excess > MovePenalty: spill
		{50, false},
	}
	for _, tc := range cases {
		reps := mkReplicas(3, tc.homeLoad, 0, 0)
		got := p.Pick(key, reps)
		if tc.wantHome && got != 0 {
			t.Errorf("homeLoad=%d: picked r%d, want home r0", tc.homeLoad, got)
		}
		if !tc.wantHome && got == 0 {
			t.Errorf("homeLoad=%d: stayed on overloaded home", tc.homeLoad)
		}
	}
}

// TestPickMovePenaltySweep checks MovePenalty alone spans the old
// α/β range: +Inf pins traffic to the home whatever the skew (pure
// affinity, α = 0), a penalty below one request chases the least
// loaded replica and breaks load ties to the home (β = 0), and the
// default spills only past a two-request excess.
func TestPickMovePenaltySweep(t *testing.T) {
	var key uint64
	reps := mkReplicas(2)
	for i := 0; ; i++ {
		key = Key([]byte(fmt.Sprintf("probe-%d", i)))
		if Home(key, reps) == 0 {
			break
		}
	}
	cases := []struct {
		penalty  float64
		homeLoad int
		peerLoad int
		want     int
	}{
		{math.Inf(1), 1000, 0, 0},
		{math.Inf(1), 0, 0, 0},
		{0.5, 1000, 0, 1},
		{0.5, 1, 0, 1},
		{0.5, 3, 3, 0},
		{0.5, 2, 3, 0},
		{0, 2, 0, 0}, // default penalty 2: excess == penalty stays home
		{0, 3, 0, 1},
	}
	for _, c := range cases {
		p := Placer{MovePenalty: c.penalty}
		if got := p.Pick(key, mkReplicas(2, c.homeLoad, c.peerLoad)); got != c.want {
			t.Errorf("MovePenalty %v, loads home=%d peer=%d: picked r%d, want r%d",
				c.penalty, c.homeLoad, c.peerLoad, got, c.want)
		}
	}
}

func TestPickEmptyAndSingle(t *testing.T) {
	var p Placer
	if got := p.Pick(1, nil); got != -1 {
		t.Fatalf("Pick on empty = %d, want -1", got)
	}
	if got := Home(1, nil); got != -1 {
		t.Fatalf("Home on empty = %d, want -1", got)
	}
	if got := p.Pick(1, mkReplicas(1, 9999)); got != 0 {
		t.Fatalf("Pick on singleton = %d, want 0", got)
	}
}
