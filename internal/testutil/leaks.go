// Package testutil holds test-only helpers shared across packages:
// GuardedTail and Faults (linux) for the packed kernels' out-of-bounds
// read tests, and, for the concurrency-heavy packages, VerifyNoLeaks, the
// runtime companion to the static goroleak analyzer: the analyzer
// proves every `go` statement carries lifetime evidence at compile
// time, and the leak net catches whatever slips past that proof —
// a Stop that never fires, a join that deadlocks under one rare
// interleaving — by diffing goroutine stacks around the whole test
// binary run.
package testutil

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// leakGrace bounds how long VerifyNoLeaks waits for straggler
// goroutines to finish after the tests complete. Shutdown is
// asynchronous — a Close can return before its goroutines observe the
// stop signal — so the snapshot retries until the grace expires
// rather than failing on the first dirty diff.
const leakGrace = 2 * time.Second

// benignStackMarkers identify goroutines that outlive tests by design
// and must not count as leaks: the testing harness itself, the signal
// dispatcher, profiler machinery, and net/http's pooled keep-alive
// connection goroutines (owned by the shared http.Transport, reaped by
// its idle timeout, not by any one test).
var benignStackMarkers = []string{
	"testing.Main(",
	"testing.(*M).",
	"testing.tRunner(",
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime/pprof.",
	"runtime.ReadTrace",
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
	"net/http.(*Transport)",
	"internal/testutil.VerifyNoLeaks",
}

// VerifyNoLeaks runs the package's tests via m.Run, then verifies the
// run left no goroutines behind. Wire it through TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(testutil.VerifyNoLeaks(m)) }
//
// If m.Run fails, its exit code is returned untouched (a leak report
// would only bury the real failure). On a passing run, leftover
// goroutines — after filtering the benign harness machinery and
// retrying across a short grace window so asynchronous shutdowns can
// finish — fail the binary with exit code 1 and a dump of the leaked
// stacks.
func VerifyNoLeaks(m *testing.M) int {
	before := map[string]bool{}
	for id := range goroutineStacks() {
		before[id] = true
	}
	code := m.Run()
	if code != 0 {
		return code
	}
	leaked := awaitNoNewGoroutines(before)
	if len(leaked) == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "testutil: %d goroutine(s) leaked by the test run:\n\n%s\n",
		len(leaked), strings.Join(leaked, "\n\n"))
	return 1
}

// awaitNoNewGoroutines polls until every goroutine not present in
// before (and not benign) has exited, or the grace window expires; it
// returns the stacks still alive at the deadline.
func awaitNoNewGoroutines(before map[string]bool) []string {
	deadline := time.Now().Add(leakGrace)
	for {
		var leaked []string
		for id, stack := range goroutineStacks() {
			if before[id] || benign(stack) {
				continue
			}
			leaked = append(leaked, stack)
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			sort.Strings(leaked)
			return leaked
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// goroutineStacks snapshots every live goroutine's stack keyed by
// goroutine ID, so the before/after diff tracks identity (a reused
// pooled goroutine with a new stack still counts as old).
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if id := goroutineID(g); id != "" {
			stacks[id] = g
		}
	}
	return stacks
}

// goroutineID extracts "N" from a "goroutine N [state]:" header, or
// "" for malformed fragments.
func goroutineID(stack string) string {
	if !strings.HasPrefix(stack, "goroutine ") {
		return ""
	}
	rest := stack[len("goroutine "):]
	if sp := strings.IndexByte(rest, ' '); sp > 0 {
		return rest[:sp]
	}
	return ""
}

// benign reports whether a goroutine's stack belongs to harness
// machinery that legitimately outlives the tests.
func benign(stack string) bool {
	for _, marker := range benignStackMarkers {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
