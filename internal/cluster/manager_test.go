package cluster

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/testutil"
	"pimcapsnet/internal/wire"
)

// TestMain doubles the test binary as a fake capsnet-serve replica: the
// manager needs a subprocess that honors the serving contract (-addr
// 127.0.0.1:0, JSON "serving" log line on stderr, /readyz load body,
// SIGTERM drain), and re-execing ourselves avoids building the real
// binary inside unit tests.
func TestMain(m *testing.M) {
	if os.Getenv("CLUSTER_FAKE_REPLICA") == "1" {
		runFakeReplica()
		return
	}
	// The leak net (see internal/testutil) verifies every manager
	// supervisor, stderr scanner, and dispatcher goroutine is joined by
	// the time the suite ends.
	os.Exit(testutil.VerifyNoLeaks(m))
}

func runFakeReplica() {
	fs := flag.NewFlagSet("fake-replica", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "")
	fs.String("log-format", "text", "")
	fs.String("log-level", "info", "")
	fs.Parse(os.Args[1:])

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, `{"msg":"listen failed","error":%q}`+"\n", err)
		os.Exit(1)
	}
	// The startup record the manager's stderr scanner parses.
	fmt.Fprintf(os.Stderr, `{"level":"INFO","msg":"serving","addr":%q}`+"\n", ln.Addr().String())

	var draining atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		status, code := "ok", http.StatusOK
		if draining.Load() {
			status, code = "draining", http.StatusServiceUnavailable
		}
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(wire.Load{Status: status, QueueCapacity: 64, MaxBatch: 8, PID: os.Getpid()})
	})
	mux.HandleFunc("/v1/classify", func(w http.ResponseWriter, r *http.Request) {
		io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"class":0,"probs":[0.9,0.1],"poses":null,"batch":1}`)
	})
	// Chaos endpoints for the manager tests.
	mux.HandleFunc("/die", func(w http.ResponseWriter, r *http.Request) { os.Exit(3) })
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) { draining.Store(true) })

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sig
		os.Exit(0) // "graceful": the real binary drains; exiting clean is enough here
	}()
	http.Serve(ln, mux)
}

func newTestManager(t *testing.T, replicas int) *Manager {
	t.Helper()
	m, err := NewManager(ManagerConfig{
		Binary:        os.Args[0],
		Env:           []string{"CLUSTER_FAKE_REPLICA=1"},
		Replicas:      replicas,
		StartTimeout:  15 * time.Second,
		StopTimeout:   5 * time.Second,
		BackoffMin:    20 * time.Millisecond,
		BackoffMax:    200 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(m.Stop)
	return m
}

func TestManagerSpawnAndStop(t *testing.T) {
	m := newTestManager(t, 2)
	m.Start()
	if err := WaitReady(testCtx(t, 15*time.Second), m, 2); err != nil {
		t.Fatalf("replicas never ready: %v\nsnapshot: %+v", err, m.Snapshot())
	}
	for _, r := range m.Snapshot() {
		if r.URL == "" || r.PID == 0 || !r.Ready {
			t.Fatalf("ready replica incomplete: %+v", r)
		}
		if r.Load.PID != r.PID {
			t.Fatalf("probed load PID %d != process PID %d", r.Load.PID, r.PID)
		}
		resp, err := http.Get(r.URL + "/v1/classify")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %s not serving: %v %v", r.Name, err, resp)
		}
		resp.Body.Close()
	}
	m.Stop()
	for _, r := range m.Snapshot() {
		if r.Ready {
			t.Fatalf("replica %s still ready after Stop", r.Name)
		}
	}
}

func TestManagerRestartsCrashedReplica(t *testing.T) {
	m := newTestManager(t, 1)
	m.Start()
	if err := WaitReady(testCtx(t, 15*time.Second), m, 1); err != nil {
		t.Fatalf("replica never ready: %v", err)
	}
	before := m.Snapshot()[0]

	// Kill the replica from inside; /die never writes a response, so
	// the GET errors — only the exit matters.
	http.Get(before.URL + "/die")

	deadline := time.Now().Add(15 * time.Second)
	for {
		r := m.Snapshot()[0]
		if r.Ready && r.PID != before.PID {
			if r.Restarts == 0 {
				t.Fatalf("restarted replica reports 0 restarts: %+v", r)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never restarted: before=%+v now=%+v", before, r)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestManagerMarksDrainingNotReady(t *testing.T) {
	m := newTestManager(t, 1)
	m.Start()
	if err := WaitReady(testCtx(t, 15*time.Second), m, 1); err != nil {
		t.Fatalf("replica never ready: %v", err)
	}
	url := m.Snapshot()[0].URL
	if _, err := http.Get(url + "/drain"); err != nil {
		t.Fatalf("drain request: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := m.Snapshot()[0]
		if !r.Ready {
			if r.Load.Status != "draining" {
				t.Fatalf("drained replica load %+v, want status draining", r.Load)
			}
			if r.PID == 0 {
				t.Fatalf("draining replica treated as down: %+v", r)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining replica still marked ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestManagerSurvivesUnrunnableBinary walks the restart backoff ladder
// on a ManualClock: each failed spawn arms exactly one pause, doubling
// from BackoffMin and capped at BackoffMax, firing neither early nor
// late.
func TestManagerSurvivesUnrunnableBinary(t *testing.T) {
	m, err := NewManager(ManagerConfig{
		Binary:     "/nonexistent/definitely-not-a-binary",
		Replicas:   1,
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	clk := obs.NewManualClock(time.Unix(1_700_000_000, 0))
	m.clock = clk
	m.Start()
	for i, pause := range []time.Duration{10, 20, 40, 50, 50} {
		pause *= time.Millisecond
		clk.BlockUntil(1)
		r := m.Snapshot()[0]
		if r.Ready {
			t.Fatalf("unrunnable binary marked ready: %+v", r)
		}
		if r.Restarts != uint64(i+1) {
			t.Fatalf("pause %d armed after %d restarts, want %d", i, r.Restarts, i+1)
		}
		if n := clk.Advance(pause - 1); n != 0 {
			t.Fatalf("pause %d ended before %v", i, pause)
		}
		if n := clk.Advance(1); n != 1 {
			t.Fatalf("pause %d did not end at %v", i, pause)
		}
	}
	done := make(chan struct{})
	go func() { m.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Stop wedged on a crash-looping replica")
	}
}

func TestManagerConfigValidate(t *testing.T) {
	if _, err := NewManager(ManagerConfig{}); err == nil {
		t.Fatalf("NewManager accepted empty Binary")
	}
}

// testCtx returns a context bounded by d that is released with the
// test.
func testCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}
