//pimcaps:bitexact

package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/obs"
)

// TestArenaAndPartitionMetrics checks the serving stack surfaces the
// allocation-free forward path: after classifications, /metrics
// reports a non-zero capsnet_arena_bytes gauge (the network holds its
// pooled scratch arenas) and capsnet_routing_partition_total counters
// that account for every routing run.
func TestArenaAndPartitionMetrics(t *testing.T) {
	network, images := testNetwork(t, 3)
	srv, err := New(network, capsnet.ExactMath{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close(context.Background())

	const n = 4
	for i := 0; i < n; i++ {
		resp, _ := postClassify(t, ts.URL, images[i%len(images)])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	samples := obs.ParsePromText([]byte(scrapeMetrics(t, ts.URL)))
	arena, _ := samples.Value("capsnet_arena_bytes")
	partB, okB := samples.Value("capsnet_routing_partition_total", "dim", "batch")
	partH, okH := samples.Value("capsnet_routing_partition_total", "dim", "hcaps")
	if !okB || !okH {
		t.Fatal("capsnet_routing_partition_total{dim} series missing")
	}
	if arena <= 0 {
		t.Errorf("capsnet_arena_bytes = %v, want > 0 (pooled scratch arenas live)", arena)
	}
	runs := partB + partH
	if runs == 0 {
		t.Error("capsnet_routing_partition_total counters account for no routing runs")
	}
	// Every routing run was sharded exactly one way, so the counters
	// must sum to the forward-pass count, which is the batch count.
	if batches := float64(srv.Metrics().Batches.Value()); runs != batches {
		t.Errorf("partition counters sum to %v runs, want %v (batches launched)", runs, batches)
	}

	// The routing_partition marker stage must be visible in the stage
	// histograms like every other forward stage.
	if srv.Metrics().Stages.With(capsnet.StageRoutingPartition).Count() == 0 {
		t.Error("routing_partition marker stage has no observations")
	}
}
