package pimcapsnet_bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/cluster"
	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/serve"
)

// onePool is a fixed single-replica cluster.Pool.
type onePool struct{ rep cluster.ReplicaInfo }

func (p onePool) Snapshot() []cluster.ReplicaInfo { return []cluster.ReplicaInfo{p.rep} }

// debugAnswer reduces one /debug/requests response to what must match
// across tiers: status, content type, and the trace IDs it exports (the
// request_done markers of a Chrome trace, the fragments of a spans
// document) or the error text.
func debugAnswer(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	var ids []string
	switch body := w.Body.Bytes(); {
	case w.Code != http.StatusOK:
		ids = []string{strings.TrimSpace(string(body))}
	case strings.Contains(path, "format=spans"):
		var doc obs.FragmentDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, f := range doc.Fragments {
			ids = append(ids, f.TraceID)
		}
	default:
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, e := range doc.TraceEvents {
			if e.Name == "request_done" {
				ids = append(ids, fmt.Sprint(e.Args["trace_id"]))
			}
		}
	}
	return fmt.Sprintf("%d %s %v", w.Code, w.Header().Get("Content-Type"), ids)
}

// TestDebugRequestsSameAtBothTiers mounts a replica (serve.Server) and
// a router (cluster.Dispatcher) with one recorder configuration, sends
// each the same three requests, and checks both answer the
// /debug/requests contract identically.
func TestDebugRequestsSameAtBothTiers(t *testing.T) {
	network, err := capsnet.New(capsnet.TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer network.Close()
	rc := obs.RequestsConfig{TraceSample: 1}
	srv, err := serve.New(network, capsnet.ExactMath{}, serve.Config{RequestsConfig: rc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"class":0,"probs":[1,0,0]}`)
	}))
	defer replica.Close()
	disp, err := cluster.NewDispatcher(cluster.DispatcherConfig{
		Pool:           onePool{cluster.ReplicaInfo{Name: "r0", URL: replica.URL, Ready: true}},
		RequestsConfig: rc,
	})
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(serve.ClassifyRequest{Image: make([]float32, network.ImageLen())})
	if err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name string
		h    http.Handler
	}{{"serve", srv.Handler()}, {"router", disp.Handler()}}
	for _, tier := range tiers {
		for i := 1; i <= 3; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
			req.Header.Set(obs.TraceIDHeader, fmt.Sprintf("req-%d", i))
			w := httptest.NewRecorder()
			tier.h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("%s classify: status %d: %s", tier.name, w.Code, w.Body)
			}
		}
	}

	want := map[string]string{
		"/debug/requests/trace?last=2":                   "200 application/json [req-2 req-3]",
		"/debug/requests/trace?last=zero":                "400 text/plain; charset=utf-8 [last must be a positive integer]",
		"/debug/requests/trace?last=0":                   "400 text/plain; charset=utf-8 [last must be a positive integer]",
		"/debug/requests/trace?trace=req-2":              "200 application/json [req-2]",
		"/debug/requests/trace?trace=req-2&format=spans": "200 application/json [req-2]",
		"/debug/requests/flight":                         "404 text/plain; charset=utf-8 [flight recorder disabled (set FlightBuffer > 0)]",
	}
	for path, wantAnswer := range want {
		got := make([]string, len(tiers))
		for i, tier := range tiers {
			got[i] = debugAnswer(t, tier.h, path)
		}
		if !reflect.DeepEqual(got, []string{wantAnswer, wantAnswer}) {
			t.Errorf("%s: serve answered %q, router %q; want both %q", path, got[0], got[1], wantAnswer)
		}
	}
}
