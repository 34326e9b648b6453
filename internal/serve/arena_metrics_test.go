//pimcaps:bitexact

package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/obs"
)

// TestArenaAndPartitionMetrics checks the serving stack surfaces the
// allocation-free forward path: after classifications, /metrics
// reports a non-zero capsnet_arena_bytes gauge (the network holds its
// pooled scratch arenas). The retired routing-partition family and
// its marker stage must stay off the wire.
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
	if arena, _ := samples.Value("capsnet_arena_bytes"); arena <= 0 {
		t.Errorf("capsnet_arena_bytes = %v, want > 0 (pooled scratch arenas live)", arena)
	}
	for _, s := range samples {
		if strings.Contains(s.Name, "partition") {
			t.Fatalf("retired partition family still exposed: %v", s)
		}
		for _, l := range s.Labels {
			if l.Key == "stage" && l.Val == capsnet.StageRoutingPartition {
				t.Fatalf("retired marker stage still exposed: %v", s)
			}
		}
	}
}
