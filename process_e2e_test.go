package pimcapsnet_bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"pimcapsnet/internal/cluster"
)

// The out-of-process drills build cmd/ binaries, start them, read the
// bound address off their JSON startup record, and shut them down
// with SIGINT. This file is that lifecycle, once.

// logRecord is the part of a JSON log record the drills read.
type logRecord struct {
	Msg     string `json:"msg"`
	Addr    string `json:"addr"`
	TraceID string `json:"trace_id"`
	Status  int    `json:"status"`
}

// buildCmds compiles the named binaries into a temporary directory
// and returns their paths in the same order. A bare name is a cmd/
// binary; a name with a slash is a main package path from the module
// root, such as examples/serve.
func buildCmds(t *testing.T, names ...string) []string {
	t.Helper()
	dir := t.TempDir()
	bins := make([]string, len(names))
	for i, name := range names {
		pkg := "./cmd/" + name
		if strings.Contains(name, "/") {
			pkg = "./" + name
		}
		bins[i] = filepath.Join(dir, filepath.Base(name))
		if out, err := exec.Command("go", "build", "-o", bins[i], pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	return bins
}

// proc is one binary a drill runs: a capsnet-serve, or a
// capsnet-router together with the replicas it spawns.
type proc struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string // "http://" + the addr of the startup record

	exited  chan struct{} // closed once Wait has returned
	waitErr error

	scanned chan struct{} // closed once stderr reached EOF
	records []logRecord   // every JSON record logged on stderr
	logErr  error         // the first stderr line that was not one
}

// startProc runs bin in a process group of its own and returns once
// it has logged the JSON record whose msg is msg ("serving" for
// capsnet-serve, "routing" for capsnet-router); p.base is built from
// that record's addr. The test's cleanup is p.kill, so a drill that
// fails midway leaves no replica of a router behind.
func startProc(t *testing.T, bin, msg string, args ...string) *proc {
	t.Helper()
	// A pipe of our own rather than StderrPipe: Wait closes the latter,
	// possibly before the last lines are read.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = w
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	err = cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	p := &proc{t: t, cmd: cmd, exited: make(chan struct{}), scanned: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.scanned)
		defer r.Close()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			var rec logRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				if p.logErr == nil {
					p.logErr = fmt.Errorf("non-JSON log line %q: %v", sc.Text(), err)
				}
				continue
			}
			if rec.Msg == msg && rec.Addr != "" {
				select {
				case addrCh <- rec.Addr:
				default:
				}
			}
			p.records = append(p.records, rec)
		}
		if err := sc.Err(); err != nil && p.logErr == nil {
			p.logErr = err
		}
		// Drain whatever is left: a full pipe would block the child.
		io.Copy(io.Discard, r)
	}()
	t.Cleanup(p.kill)
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case <-p.exited:
		t.Fatalf("%s exited before logging %q: %v", p.name(), msg, p.waitErr)
	case <-time.After(2 * time.Minute):
		t.Fatalf("%s logged no %q record within 2m", p.name(), msg)
	}
	return p
}

func (p *proc) name() string { return filepath.Base(p.cmd.Path) }

// kill SIGKILLs p's whole process group, p and every replica it
// spawned, then reaps p. It is p's test cleanup; a second call is
// harmless.
func (p *proc) kill() {
	// ESRCH once the group is gone (after interrupt, or a second call).
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.exited
	<-p.scanned
}

// interrupt sends SIGINT, the graceful drain, and fails the test
// unless p exits 0 within 30s having logged only JSON records. After
// it returns, p.records is complete.
func (p *proc) interrupt() {
	p.t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
		p.t.Fatal(err)
	}
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		p.t.Fatalf("%s did not exit after SIGINT", p.name())
	}
	if p.waitErr != nil {
		p.t.Fatalf("%s exited non-zero: %v", p.name(), p.waitErr)
	}
	<-p.scanned
	if p.logErr != nil {
		p.t.Error(p.logErr)
	}
}

// TestKillReapsReplicasE2E holds kill to its promise. A SIGKILL to the
// router's pid alone reparents its capsnet-serve children to init,
// where they keep their ports and CPU; killing the process group takes
// them down with it.
func TestKillReapsReplicasE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the router and a replica; skipped in -short")
	}
	bins := buildCmds(t, "capsnet-serve", "capsnet-router")
	router := startProc(t, bins[1], "routing",
		"-addr", "127.0.0.1:0",
		"-serve-bin", bins[0],
		"-replicas", "1",
		"-log-format", "json",
		"--", "-demo-classes", "3",
	)
	var fleet []cluster.ReplicaInfo
	getJSON(t, router.base+"/v1/replicas", &fleet)
	if len(fleet) != 1 || fleet[0].PID == 0 {
		t.Fatalf("fleet %+v, want one running replica", fleet)
	}
	pid := fleet[0].PID

	router.kill()
	for deadline := time.Now().Add(10 * time.Second); !gone(pid); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("replica pid %d outlived its router's kill", pid)
		}
	}
}

// gone reports whether pid has stopped running: no such process, or a
// zombie that holds no port or CPU while init gets round to reaping it.
func gone(pid int) bool {
	if syscall.Kill(pid, 0) == syscall.ESRCH {
		return true
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	i := bytes.LastIndexByte(stat, ')') // the state follows "(comm) "
	return err == nil && i >= 0 && i+2 < len(stat) && stat[i+2] == 'Z'
}
