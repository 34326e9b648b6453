package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"pimcapsnet/internal/obs"
	"pimcapsnet/internal/wire"
)

// ManagerConfig tunes the replica supervisor. Zero-value fields fall
// back to the documented defaults.
type ManagerConfig struct {
	// Binary is the capsnet-serve executable to spawn (required).
	Binary string
	// Args are passed to every replica. The manager appends its own
	// "-addr 127.0.0.1:0 -log-format json -log-level info" afterwards,
	// so flag-package last-wins semantics guarantee the contract the
	// supervisor depends on (ephemeral port in a parseable startup log
	// line) regardless of what Args contains.
	Args []string
	// Env entries are appended to the inherited environment (e.g.
	// GOMAXPROCS=1 to pin replicas for scaling benchmarks).
	Env []string
	// Replicas is the number of subprocesses to keep alive. Default 1.
	Replicas int
	// StartTimeout bounds one spawn: process start → "serving" log
	// line → first /readyz 200. Default 30s.
	StartTimeout time.Duration
	// StopTimeout bounds graceful shutdown per replica: SIGTERM →
	// drain → exit, then SIGKILL. Default 10s.
	StopTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential restart backoff a
	// crashing replica pays between attempts. Defaults 200ms / 5s.
	BackoffMin, BackoffMax time.Duration
	// ProbeInterval is the health/load probe period per replica.
	// Default 250ms.
	ProbeInterval time.Duration
	// Logger receives supervisor events (spawn, ready, crash,
	// restart). Nil disables logging.
	Logger *slog.Logger
	// ReplicaStderr, when non-nil, receives every replica's raw stderr
	// lines (prefixed with the replica name) — the aggregated log
	// stream. Nil discards replica logs after the supervisor has
	// parsed what it needs.
	ReplicaStderr io.Writer
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.StartTimeout == 0 {
		c.StartTimeout = 30 * time.Second
	}
	if c.StopTimeout == 0 {
		c.StopTimeout = 10 * time.Second
	}
	if c.BackoffMin == 0 {
		c.BackoffMin = 200 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	return c
}

// Validate reports an error for an unusable configuration.
func (c ManagerConfig) Validate() error {
	if c.Binary == "" {
		return fmt.Errorf("cluster: ManagerConfig.Binary is required")
	}
	if c.Replicas < 1 {
		return fmt.Errorf("cluster: Replicas %d, need >= 1", c.Replicas)
	}
	return nil
}

// replica is one supervised subprocess slot. The supervisor goroutine
// owns the process; the mutex guards the published snapshot fields
// read by Snapshot.
type replica struct {
	name string

	mu sync.Mutex
	//pimcaps:guardedby mu
	url string
	//pimcaps:guardedby mu
	pid int
	//pimcaps:guardedby mu
	ready bool
	//pimcaps:guardedby mu
	load wire.Load
	//pimcaps:guardedby mu
	restarts uint64
}

func (r *replica) snapshot() ReplicaInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaInfo{
		Name: r.name, URL: r.url, PID: r.pid,
		Ready: r.ready, Restarts: r.restarts, Load: r.load,
	}
}

// setDown clears the dispatchable state (process gone or not yet up).
func (r *replica) setDown() {
	r.mu.Lock()
	r.url, r.pid, r.ready, r.load = "", 0, false, wire.Load{}
	r.mu.Unlock()
}

// Manager supervises N replica subprocesses through their lifecycle:
// spawn → wait /readyz → serve (with periodic load probes) → drain →
// restart-on-crash with exponential backoff. It implements Pool.
type Manager struct {
	cfg    ManagerConfig
	client *http.Client
	// clock times spawns, probes, backoff and shutdown grace: obs.Wall,
	// replaced by tests inside the package before Start.
	clock obs.Clock

	replicas []*replica

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewManager builds a manager; call Start to spawn the replicas.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg: cfg,
		// Probes are tiny loopback GETs; a short timeout keeps a hung
		// replica from wedging the prober.
		client: &http.Client{Timeout: 5 * time.Second},
		clock:  obs.Wall,
		stop:   make(chan struct{}),
	}
	for i := 0; i < cfg.Replicas; i++ {
		m.replicas = append(m.replicas, &replica{name: fmt.Sprintf("r%d", i)})
	}
	return m, nil
}

// Start launches one supervisor goroutine per replica and returns
// immediately; use WaitReady to block until the fleet is serving.
func (m *Manager) Start() {
	for _, r := range m.replicas {
		m.wg.Add(1)
		go func(r *replica) {
			defer m.wg.Done()
			m.supervise(r)
		}(r)
	}
}

// Stop drains every replica (SIGTERM, bounded by StopTimeout, then
// SIGKILL) and waits for the supervisors to exit. Idempotent. The join
// is deliberately context-free: every supervisor bounds its own exit by
// StopTimeout once the stop channel closes, and Stop runs at process
// teardown where no caller context exists.
//
//lint:ignore pimcaps/ctxcheck teardown join is bounded by StopTimeout inside each supervisor; no caller context exists at process exit
func (m *Manager) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// Snapshot implements Pool.
func (m *Manager) Snapshot() []ReplicaInfo {
	out := make([]ReplicaInfo, len(m.replicas))
	for i, r := range m.replicas {
		out[i] = r.snapshot()
	}
	return out
}

func (m *Manager) logger() *slog.Logger {
	if m.cfg.Logger != nil {
		return m.cfg.Logger
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// supervise is one replica's restart loop: each runOnce covers a full
// process lifetime; crashes cost backoff, clean stops end the loop.
func (m *Manager) supervise(r *replica) {
	backoff := m.cfg.BackoffMin
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		started := m.clock.Now()
		err := m.runOnce(r)
		r.setDown()
		select {
		case <-m.stop:
			return
		default:
		}
		// Crash (or failed spawn): restart after backoff. A run that
		// stayed up past the max backoff proves the binary basically
		// works, so the next crash starts the ladder over.
		r.mu.Lock()
		r.restarts++
		restarts := r.restarts
		r.mu.Unlock()
		if m.clock.Now().Sub(started) > m.cfg.BackoffMax {
			backoff = m.cfg.BackoffMin
		}
		m.logger().Warn("replica exited, restarting",
			slog.String("replica", r.name),
			slog.Uint64("restarts", restarts),
			slog.Duration("backoff", backoff),
			slog.String("error", fmt.Sprint(err)))
		// A stoppable timer, not time.After: shutdown mid-pause releases it.
		pause := m.clock.NewTimer(backoff)
		select {
		case <-pause.C():
		case <-m.stop:
			pause.Stop()
			return
		}
		if backoff *= 2; backoff > m.cfg.BackoffMax {
			backoff = m.cfg.BackoffMax
		}
	}
}

// servingLine is the JSON startup record the serve binary logs; the
// addr field carries the ephemeral port -addr 127.0.0.1:0 resolved to.
type servingLine struct {
	Msg  string `json:"msg"`
	Addr string `json:"addr"`
}

// runOnce runs one full process lifetime: spawn, parse the startup
// line, wait for readiness, probe until exit or shutdown. It returns
// when the process has exited (crash) or been stopped (shutdown).
func (m *Manager) runOnce(r *replica) error {
	args := append(append([]string{}, m.cfg.Args...),
		"-addr", "127.0.0.1:0", "-log-format", "json", "-log-level", "info")
	cmd := exec.Command(m.cfg.Binary, args...)
	cmd.Env = append(os.Environ(), m.cfg.Env...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("cluster: spawning %s: %w", r.name, err)
	}

	// The scanner drains stderr for the whole process lifetime (a full
	// pipe would block the child); the first "serving" record carries
	// the bound address.
	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		scanner := bufio.NewScanner(stderr)
		for scanner.Scan() {
			line := scanner.Text()
			var rec servingLine
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "serving" && rec.Addr != "" {
				select {
				case addrCh <- rec.Addr:
				default:
				}
			}
			if m.cfg.ReplicaStderr != nil {
				fmt.Fprintf(m.cfg.ReplicaStderr, "[%s] %s\n", r.name, line)
			}
		}
	}()
	// Every return path below leaves the process dead and reaped (the
	// exitCh receive), which closes the stderr pipe and lets the
	// scanner goroutine exit; the join keeps a restarted replica's
	// scanner from interleaving writes with its predecessor's.
	defer func() { <-scanDone }()
	exitCh := make(chan error, 1)
	go func() { exitCh <- cmd.Wait() }()

	deadline := m.clock.NewTimer(m.cfg.StartTimeout)
	defer deadline.Stop()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-exitCh:
		return fmt.Errorf("cluster: %s exited before serving: %v", r.name, err)
	case <-deadline.C():
		cmd.Process.Kill()
		<-exitCh
		return fmt.Errorf("cluster: %s never logged its address within %v", r.name, m.cfg.StartTimeout)
	case <-m.stop:
		return m.terminate(cmd, exitCh)
	}
	url := "http://" + addr

	// Readiness barrier: the process serves HTTP, now poll /readyz every
	// 20ms until it goes 200 before publishing the replica for dispatch.
	// The same timer then paces the load probes.
	tick := m.clock.NewTimer(20 * time.Millisecond)
	defer tick.Stop()
	for {
		load, ready, _ := probeReadyz(m.client, url)
		if ready {
			r.mu.Lock()
			r.url, r.pid, r.ready, r.load = url, cmd.Process.Pid, true, load
			r.mu.Unlock()
			break
		}
		select {
		case <-tick.C():
			tick.Reset(20 * time.Millisecond)
		case err := <-exitCh:
			return fmt.Errorf("cluster: %s exited before ready: %v", r.name, err)
		case <-deadline.C():
			cmd.Process.Kill()
			<-exitCh
			return fmt.Errorf("cluster: %s not ready within %v", r.name, m.cfg.StartTimeout)
		case <-m.stop:
			return m.terminate(cmd, exitCh)
		}
	}
	m.logger().Info("replica ready",
		slog.String("replica", r.name),
		slog.String("url", url),
		slog.Int("pid", cmd.Process.Pid))

	// Serving: probe load and readiness until the process exits or the
	// manager shuts down. A 503 (draining, wedged batcher) marks the
	// replica not-ready — drain-aware rebalancing — without touching
	// the process; probes that fail entirely do the same and leave the
	// crash handling to exitCh.
	for {
		tick.Reset(m.cfg.ProbeInterval)
		select {
		case <-tick.C():
			load, ready, err := probeReadyz(m.client, url)
			r.mu.Lock()
			if err == nil {
				r.ready, r.load = ready, load
			} else {
				r.ready = false
			}
			r.mu.Unlock()
		case err := <-exitCh:
			return fmt.Errorf("cluster: %s process exited: %v", r.name, err)
		case <-m.stop:
			return m.terminate(cmd, exitCh)
		}
	}
}

// terminate performs the graceful half of shutdown for one process:
// SIGTERM (the serve binary drains on it), bounded wait, SIGKILL.
func (m *Manager) terminate(cmd *exec.Cmd, exitCh <-chan error) error {
	cmd.Process.Signal(syscall.SIGTERM)
	grace := m.clock.NewTimer(m.cfg.StopTimeout)
	defer grace.Stop()
	select {
	case err := <-exitCh:
		return err
	case <-grace.C():
		cmd.Process.Kill()
		return <-exitCh
	}
}
