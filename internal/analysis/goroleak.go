package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Goroleak enforces bounded goroutine lifetimes in the long-lived
// concurrency packages (the concurrencyPkgs set shared with
// timerleak). A replica process or router runs for days; a goroutine
// spawned per request, per batch, or per subprocess that nothing ever
// joins or signals accumulates until the heap or the scheduler gives
// out — the classic leak -race cannot see. Every go statement in
// scope must exhibit one of four structural lifetime bounds in its
// body:
//
//  1. it is joined by a sync.WaitGroup (calls or defers wg.Done());
//  2. it signals a join by closing a channel (close(done), usually
//     deferred);
//  3. it receives from or selects on a shutdown channel — ctx.Done(),
//     or a channel whose name says stop/done/quit/close/shutdown/exit;
//  4. it is a bounded one-shot: no loops, no blocking receives or
//     bare selects, and every channel send targets a channel created
//     with a buffer (so an abandoned result parks instead of pinning
//     the sender forever).
//
// The body of `go f()` resolves through same-package function and
// method declarations; a body the analyzer cannot see (cross-package
// call, function value) is reported, because a lifetime nobody can
// read is a lifetime nobody bounds. Test files are exempt; deliberate
// exceptions carry //lint:ignore pimcaps/goroleak with a
// justification.
var Goroleak = &Analyzer{
	Name: "goroleak",
	Doc:  "goroutines in the concurrency packages must have bounded lifetimes: WaitGroup-joined, done-channel-signalled, shutdown-selecting, or buffered one-shots",
	Run:  runGoroleak,
}

// stopChanWords are the substrings that mark a channel as a shutdown
// or completion signal by name.
var stopChanWords = []string{"stop", "done", "quit", "close", "shutdown", "exit"}

func runGoroleak(pass *Pass) error {
	if !inPkgs(pass, concurrencyPkgs) {
		return nil
	}
	// Index same-package function bodies (for `go b.run()`) and
	// channels provably created with a buffer (for the one-shot rule).
	decls := map[types.Object]*ast.FuncDecl{}
	buffered := map[types.Object]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if obj := pass.TypesInfo.Defs[n.Name]; obj != nil {
					decls[obj] = n
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					recordBufferedChan(pass, n.Lhs[i], rhs, buffered)
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i >= len(n.Names) {
						break
					}
					recordBufferedChan(pass, n.Names[i], v, buffered)
				}
			}
			return true
		})
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goroutineBody(pass, g, decls)
			if body == nil {
				pass.Reportf(g.Pos(), "cannot resolve this goroutine's body to verify its lifetime is bounded; spawn a function declared in this package (or suppress with a justification)")
				return true
			}
			if reason := unboundedReason(pass, body, buffered); reason != "" {
				pass.Reportf(g.Pos(), "goroutine has no bounded lifetime: %s; join it with a WaitGroup, close a done channel, or select on a stop channel/ctx.Done()", reason)
			}
			return true
		})
	}
	return nil
}

// recordBufferedChan records lhs as a buffered channel when rhs is a
// make(chan T, n) with constant n > 0.
func recordBufferedChan(pass *Pass, lhs, rhs ast.Expr, buffered map[types.Object]bool) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return
	}
	if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fun.Name != "make" || pass.TypesInfo.Uses[fun] != types.Universe.Lookup("make") {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return
	}
	if n, ok := constant.Int64Val(tv.Value); !ok || n <= 0 {
		return
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj != nil {
		buffered[obj] = true
	}
}

// goroutineBody resolves the body a go statement will run: a function
// literal's own body, or the declaration of a same-package function or
// method. nil when the body is out of reach.
func goroutineBody(pass *Pass, g *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) *ast.BlockStmt {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fd := decls[pass.TypesInfo.Uses[fun]]; fd != nil {
			return fd.Body
		}
	case *ast.SelectorExpr:
		if fd := decls[pass.TypesInfo.Uses[fun.Sel]]; fd != nil {
			return fd.Body
		}
	}
	return nil
}

// unboundedReason inspects a goroutine body for lifetime-bound
// evidence and returns "" when any is found, else a description of
// what is missing. Nested go statements are excluded — an inner
// goroutine's shutdown handling does not bound the outer one (each go
// statement is checked on its own).
func unboundedReason(pass *Pass, body *ast.BlockStmt, buffered map[types.Object]bool) string {
	bounded := false
	loops := false
	blockingComm := false
	unbufferedSend := false
	// Communication ops of a default-carrying select are non-blocking
	// polls (ctxcheck uses the same trick): they neither pin the
	// goroutine nor count as sends an abandoned receiver could wedge.
	// Select statements are visited before their clauses, so the ops
	// are marked by the time the walk reaches them.
	nonBlocking := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if bounded {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			loops = true
		case *ast.CallExpr:
			switch calleeFullName(pass, n) {
			case "(*sync.WaitGroup).Done":
				bounded = true
				return false
			}
			if fun, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && fun.Name == "close" && pass.TypesInfo.Uses[fun] == types.Universe.Lookup("close") {
				bounded = true
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if isStopChan(n.X) {
					bounded = true
					return false
				}
				if !nonBlocking[n] {
					blockingComm = true
				}
			}
		case *ast.SelectStmt:
			hasDefault := selectHasDefault(n)
			for _, c := range n.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				var ch ast.Expr
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					ch = comm.Chan
					if hasDefault {
						nonBlocking[comm] = true
					}
				case *ast.ExprStmt:
					if recv, ok := comm.X.(*ast.UnaryExpr); ok {
						ch = recv.X
						if hasDefault {
							nonBlocking[recv] = true
						}
					}
				case *ast.AssignStmt:
					if len(comm.Rhs) == 1 {
						if recv, ok := comm.Rhs[0].(*ast.UnaryExpr); ok {
							ch = recv.X
							if hasDefault {
								nonBlocking[recv] = true
							}
						}
					}
				}
				if ch != nil && isStopChan(ch) {
					bounded = true
					return false
				}
			}
			if !hasDefault {
				blockingComm = true
			}
		case *ast.SendStmt:
			if nonBlocking[n] {
				break
			}
			id, ok := ast.Unparen(n.Chan).(*ast.Ident)
			if !ok || !buffered[pass.TypesInfo.Uses[id]] {
				unbufferedSend = true
			}
		}
		return true
	})
	if bounded {
		return ""
	}
	switch {
	case loops:
		return "it loops without a WaitGroup join, done-channel close, or stop-channel select"
	case unbufferedSend:
		return "it sends on a channel not provably buffered, so an abandoned result pins it forever"
	case blockingComm:
		return "it blocks on channel communication with no stop channel or ctx.Done() in the select"
	}
	return ""
}

// isStopChan reports whether the channel expression reads as a
// shutdown or completion signal: a call like ctx.Done(), or a
// channel whose terminal name contains a stopChanWords substring.
func isStopChan(e ast.Expr) bool {
	name := ""
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	case *ast.CallExpr:
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
	}
	name = strings.ToLower(name)
	for _, w := range stopChanWords {
		if strings.Contains(name, w) {
			return true
		}
	}
	return false
}
