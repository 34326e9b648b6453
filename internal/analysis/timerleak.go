package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Timerleak enforces the timer-lifetime and one-clock discipline the
// serving tiers depend on. time.After allocates a runtime timer that cannot be
// stopped: harmless for a one-shot wait in a short-lived command, but
// inside a loop it accumulates one live timer per iteration until each
// fires (the cluster manager's backoff loop was the motivating leak),
// and anywhere in the long-lived concurrency packages an abandoned
// wait pins its timer for the full duration. time.Tick is worse — it
// leaks its ticker by design. The rules:
//
//  1. time.After never appears inside a for/range loop, anywhere.
//  2. In the concurrency packages (internal/serve, internal/cluster,
//     internal/loadgen, internal/obs, internal/capsnet), time.After
//     never appears at all: use time.NewTimer with a deferred Stop (or
//     a reused timer with a drain-safe Reset) so abandoned waits
//     release the timer.
//  3. time.Tick never appears outside tests.
//  4. Every time.NewTimer/time.NewTicker or obs.Clock NewTimer
//     assigned to a local must reach Stop() on all paths, through the
//     must-reach walk shared with releasecheck: a Stop (called or deferred)
//     discharges the obligation, any other mention — return, argument,
//     store — escapes it to a new owner, and a return between the
//     acquisition and the first Stop/escape is the early-return leak.
//  5. One clock: in the serving tiers (internal/serve, internal/cluster)
//     nothing reads the runtime clock or arms a runtime timer directly
//     — time.Now, Since, Until, Sleep, NewTimer, NewTicker and
//     AfterFunc, called or passed as func values, all go through the
//     component's obs.Clock, so a test's ManualClock governs every
//     wait.
//
// Test files are exempt (harness timers die with the test process);
// deliberate exceptions carry //lint:ignore pimcaps/timerleak with a
// justification.
var Timerleak = &Analyzer{
	Name: "timerleak",
	Doc:  "no time.After in loops or the concurrency packages, no time.Tick, every NewTimer/NewTicker reaches Stop() on all paths, and the serving tiers read time only through obs.Clock",
	Run:  runTimerleak,
}

// concurrencyPkgs are the trailing-segment patterns of the long-lived
// concurrency packages under the strictest timer and goroutine
// lifetime rules; goroleak scopes to the same set.
var concurrencyPkgs = []string{"internal/serve", "internal/cluster", "internal/loadgen", "internal/obs", "internal/capsnet"}

// servingTiers are the two request-path tiers: ctxcheck's deadline
// contract and timerleak's one-clock rule scope to them.
var servingTiers = []string{"internal/serve", "internal/cluster"}

// inPkgs reports whether the pass's package matches one of the
// trailing-segment patterns.
func inPkgs(pass *Pass, patterns []string) bool {
	pkgPath := strings.TrimSuffix(pass.Pkg.Path(), "_test")
	for _, p := range patterns {
		if hasSegments(pkgPath, p) {
			return true
		}
	}
	return false
}

// wallReads are the time functions that read the runtime clock or arm a
// runtime timer.
var wallReads = map[string]bool{
	"time.Now": true, "time.Since": true, "time.Until": true, "time.Sleep": true,
	"time.NewTimer": true, "time.NewTicker": true, "time.AfterFunc": true,
}

func runTimerleak(pass *Pass) error {
	strict, oneClock := inPkgs(pass, concurrencyPkgs), inPkgs(pass, servingTiers)
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		checkUnstoppableTimers(pass, file, strict)
		if oneClock {
			// Selectors, not just calls: time.Now handed over as a func
			// value is a second time source too.
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && wallReads[fn.FullName()] {
						pass.Reportf(sel.Pos(), "%s bypasses the clock; read the component's obs.Clock", fn.FullName())
					}
				}
				return true
			})
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkScopeTimers(pass, n.Body)
				}
			case *ast.FuncLit:
				checkScopeTimers(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkUnstoppableTimers reports the constructions that can never be
// stopped: time.Tick anywhere, time.After in a loop, and time.After at
// all in the strict concurrency packages.
func checkUnstoppableTimers(pass *Pass, file *ast.File, strict bool) {
	// Loop extents are collected positionally: a call textually inside
	// a for/range body (including via a closure defined there) runs
	// per iteration.
	type span struct{ pos, end token.Pos }
	var loops []span
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, span{n.Pos(), n.End()})
		}
		return true
	})
	inLoop := func(p token.Pos) bool {
		for _, l := range loops {
			if l.pos < p && p < l.end {
				return true
			}
		}
		return false
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch calleeFullName(pass, call) {
		case "time.Tick":
			pass.Reportf(call.Pos(), "time.Tick leaks its ticker by design; use time.NewTicker with a deferred Stop")
		case "time.After":
			switch {
			case inLoop(call.Pos()):
				pass.Reportf(call.Pos(), "time.After inside a loop allocates an unstoppable timer per iteration; reuse one time.NewTimer with a drain-safe Reset")
			case strict:
				pass.Reportf(call.Pos(), "time.After starts a timer nothing can stop; in the long-lived concurrency packages use time.NewTimer with a deferred Stop so abandoned waits release it")
			}
		}
		return true
	})
}

// checkScopeTimers scans one function body (FuncDecl or FuncLit,
// nested literals excluded — they are their own scopes) for
// NewTimer/NewTicker acquisitions and their Stop/escape fate.
func checkScopeTimers(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != body {
				return false
			}
		case *ast.ExprStmt:
			// A bare `time.NewTicker(d)` drops the only handle that
			// could ever stop it.
			if call, ok := n.X.(*ast.CallExpr); ok {
				if kind := timerCtor(pass, call); kind != "" {
					pass.Reportf(call.Pos(), "%s result is dropped; nothing can ever Stop this %s", calleeFullName(pass, call), kind)
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			kind := timerCtor(pass, call)
			if kind == "" {
				return true
			}
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue // stored into a field/element: the owner inherits the obligation
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "%s from %s is discarded; nothing can ever Stop it", kind, calleeFullName(pass, call))
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				// Only variables declared in this scope are traced: an
				// assignment to a captured or outer variable hands the
				// timer to longer-lived state whose discipline is that
				// owner's (e.g. a reused-timer factory closure).
				if obj == nil || obj.Pos() < body.Pos() || obj.Pos() > body.End() {
					continue
				}
				mustReach(pass, body, n, obj, "Stop",
					fmt.Sprintf("%s from %s never reaches Stop(); call or defer %s.Stop()", kind, calleeFullName(pass, call), obj.Name()),
					"return may abandon the running "+kind+" acquired at line %d: Stop is not yet deferred on this path")
			}
		}
		return true
	})
}

// timerCtor reports whether call constructs a stoppable timer,
// returning "timer", "ticker", or "". A NewTimer method declared in
// internal/obs — the Clock interface or one of its clocks — counts as
// time.NewTimer.
func timerCtor(pass *Pass, call *ast.CallExpr) string {
	switch calleeFullName(pass, call) {
	case "time.NewTimer":
		return "timer"
	case "time.NewTicker":
		return "ticker"
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "NewTimer" {
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && hasSegments(fn.Pkg().Path(), "internal/obs") {
			return "timer"
		}
	}
	return ""
}
