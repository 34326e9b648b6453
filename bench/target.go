package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"pimcapsnet/internal/capsnet"
	"pimcapsnet/internal/cluster"
	"pimcapsnet/internal/serve"
)

// Call outcomes beyond HTTP status codes.
const (
	statusOK        = http.StatusOK
	statusTransport = 0  // transport error or timeout
	statusWrong     = -1 // answered, but not the reference answer
)

// target is a set-up program under test, reached through the same
// surface its users have.
type target struct {
	spec workloadSpec
	in   *inputs
	// call runs op (spec.batch images), checks every answer against
	// its reference, and returns statusOK or what went wrong. parent is
	// the client span the call happens under, -1 when untraced.
	call func(ctx context.Context, op, parent int) int
	// network is the in-process model (nil behind the router).
	network *capsnet.Network
	// stages is the offline StageTimer while a traced pass runs.
	stages *stageTimer
	// baseURL and client reach the HTTP surface (empty when offline).
	baseURL string
	client  *http.Client
	manager *cluster.Manager
	closers []func()
}

// close tears the target down, last set up first; a second call does
// nothing.
func (t *target) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
}

// replicaPIDs lists the live capsnet-serve subprocesses.
func (t *target) replicaPIDs() []int {
	if t.manager == nil {
		return nil
	}
	var pids []int
	for _, r := range t.manager.Snapshot() {
		if r.PID != 0 {
			pids = append(pids, r.PID)
		}
	}
	return pids
}

// buildServeBinary compiles cmd/capsnet-serve into the scratch
// directory. It is its own step, outside setup_s: a build measures the
// Go toolchain, not the program.
func buildServeBinary(ctx context.Context, root, scratch string) (string, error) {
	bin := filepath.Join(scratch, "capsnet-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/capsnet-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building capsnet-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// setUp brings a workload's program to the point where it can take
// measured traffic: model build, server or fleet start, readiness
// barrier, fixed warm-up. Its wall time is setup_s.
func setUp(ctx context.Context, spec workloadSpec, in *inputs, serveBin, scratch string) (*target, error) {
	network, err := capsnet.New(models[spec.model])
	if err != nil {
		return nil, err
	}
	t := &target{spec: spec, in: in}
	switch spec.kind {
	case kindOffline:
		t.network = network
		t.call = t.forwardCall
	case kindServe:
		t.network = network
		srv, err := serve.New(network, capsnet.ExactMath{}, serve.Config{MaxDelay: spec.maxDelay})
		if err != nil {
			return nil, err
		}
		t.closers = append(t.closers, func() {
			// Teardown runs after the caller's context may be cancelled;
			// Close bounds itself by DrainTimeout, and a drain error cannot
			// change a finished measurement.
			_ = srv.Close(context.Background())
		})
		if err := t.listen(srv.Handler()); err != nil {
			t.close()
			return nil, err
		}
	case kindRouter:
		ckpt := filepath.Join(scratch, fmt.Sprintf("%s-%d.ckpt", spec.model, os.Getpid()))
		if err := network.SaveFile(ckpt); err != nil {
			return nil, err
		}
		t.closers = append(t.closers, func() { os.Remove(ckpt) })
		mgr, err := cluster.NewManager(cluster.ManagerConfig{
			Binary:   serveBin,
			Args:     []string{"-checkpoint", ckpt},
			Env:      []string{"GOMAXPROCS=1"},
			Replicas: spec.replicas,
		})
		if err != nil {
			t.close()
			return nil, err
		}
		mgr.Start()
		t.manager = mgr
		t.closers = append(t.closers, mgr.Stop)
		if err := waitReplicas(ctx, mgr, spec.replicas); err != nil {
			t.close()
			return nil, err
		}
		disp, err := cluster.NewDispatcher(cluster.DispatcherConfig{Pool: mgr})
		if err != nil {
			t.close()
			return nil, err
		}
		if err := t.listen(disp.Handler()); err != nil {
			t.close()
			return nil, err
		}
	}
	if failed := warmUp(ctx, t); failed > 0 {
		t.close()
		return nil, fmt.Errorf("%s: %d of %d warm-up calls failed", spec.name, failed, spec.warmupCalls)
	}
	return t, nil
}

// waitReplicas is the readiness barrier: every replica up and probed
// ready by its supervisor.
func waitReplicas(ctx context.Context, mgr *cluster.Manager, n int) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		ready := 0
		for _, r := range mgr.Snapshot() {
			if r.Ready {
				ready++
			}
		}
		if ready >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%d replicas not ready: %w", n, ctx.Err())
		case <-tick.C:
		}
	}
}

// listen serves h on a loopback port and points the target's client at
// it. Every caller keeps one idle connection, so the measured window
// pays no connection set-up.
func (t *target) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed once Shutdown is called below
	}()
	transport := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}
	t.baseURL = "http://" + ln.Addr().String()
	t.client = &http.Client{Transport: transport, Timeout: 10 * time.Second}
	t.call = t.httpCall
	t.closers = append(t.closers, func() {
		transport.CloseIdleConnections()
		// Teardown runs after the caller's context may be cancelled.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		wg.Wait()
	})
	return nil
}

// warmUp makes the fixed number of warm-up calls and returns how many
// did not return the reference answer.
func warmUp(ctx context.Context, t *target) int {
	var mu sync.Mutex
	failed := 0
	var wg sync.WaitGroup
	for c := 0; c < t.spec.warmupClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := c; op < t.spec.warmupCalls; op += t.spec.warmupClients {
				if t.call(ctx, op, -1) != statusOK {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return failed
}

// forwardCall is one offline call: ForwardBatch over the op's images,
// a bit-exact check of Lengths against the references, Release.
func (t *target) forwardCall(_ context.Context, op, parent int) int {
	at := op % len(t.in.batches)
	if t.stages != nil {
		t.stages.beginForward(op, parent)
	}
	out := t.network.ForwardBatch(t.in.batches[at], capsnet.ExactMath{})
	if t.stages != nil {
		t.stages.endForward()
	}
	ok := checksum(out.Lengths.Data()) == t.in.batchSums[at]
	out.Release()
	if !ok {
		return statusWrong
	}
	return statusOK
}

// httpCall is one classify request, checked against the reference.
func (t *target) httpCall(ctx context.Context, op, _ int) int {
	idx := t.in.image(op)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.baseURL+"/v1/classify", bytes.NewReader(t.in.bodies[idx]))
	if err != nil {
		return statusTransport
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return statusTransport
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
		return resp.StatusCode
	}
	var answer struct {
		Class int       `json:"class"`
		Probs []float32 `json:"probs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
		return statusTransport
	}
	if !t.in.matches(idx, answer.Class, answer.Probs) {
		return statusWrong
	}
	return statusOK
}

// scrapeServe reads the serve-layer exposition: the server's /metrics,
// or behind the router the fleet scrape summed over replicas.
func (t *target) scrapeServe(ctx context.Context) (expo, error) {
	switch t.spec.kind {
	case kindServe:
		return scrape(ctx, t.client, t.baseURL+"/metrics", false)
	case kindRouter:
		return scrape(ctx, t.client, t.baseURL+"/metrics/fleet", true)
	}
	return expo{}, nil
}

// scrapeRouter reads the dispatcher's own exposition.
func (t *target) scrapeRouter(ctx context.Context) (expo, error) {
	if t.spec.kind != kindRouter {
		return expo{}, nil
	}
	return scrape(ctx, t.client, t.baseURL+"/metrics", false)
}
