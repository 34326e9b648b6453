package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Ctxcheck enforces the deadline-propagation contract on the two
// request-path tiers (internal/serve, internal/cluster). Overload
// robustness rests on every wait being boundable: a request's deadline
// arrives over the wire (internal/wire), becomes a context, and
// must be able to reach every point that can block. Two rules make
// that structural:
//
//  1. An exported function or method that blocks directly in its own
//     body — select without a default clause, channel send or receive,
//     time.Sleep, sync.WaitGroup.Wait — must take a context.Context as
//     its first parameter. Blocking inside a function literal is the
//     spawned goroutine's business, not the caller's, and is exempt.
//  2. context.Background and context.TODO are never called in these
//     packages: a root context on the request path severs the deadline
//     chain. Roots belong in func main and in tests.
//
// Test files are exempt from both rules (harnesses wait and mint roots
// freely); deliberate exceptions carry a //lint:ignore pimcaps/ctxcheck
// directive with a justification, e.g. a process-teardown join that has
// no caller context by construction.
var Ctxcheck = &Analyzer{
	Name: "ctxcheck",
	Doc:  "exported blocking functions in the serving tiers take a context.Context first parameter, and request-path code never mints a root context",
	Run:  runCtxcheck,
}

func runCtxcheck(pass *Pass) error {
	if !inPkgs(pass, servingTiers) || pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			if ctxFirstParam(pass, fn) {
				continue
			}
			if op := firstBlockingOp(pass, fn.Body); op != "" {
				pass.Reportf(fn.Name.Pos(), "exported %s blocks on %s but has no context.Context first parameter; callers cannot bound or abandon the wait", fn.Name.Name, op)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch calleeFullName(pass, call) {
			case "context.Background", "context.TODO":
				pass.Reportf(call.Pos(), "%s mints an unbounded root context on the request path; thread the caller's context instead (roots belong in func main and tests)", calleeFullName(pass, call))
			}
			return true
		})
	}
	return nil
}

// ctxFirstParam reports whether fn's first parameter is a
// context.Context.
func ctxFirstParam(pass *Pass, fn *ast.FuncDecl) bool {
	params := fn.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(params.List[0].Type)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// firstBlockingOp walks body and names the first operation that can
// block the calling goroutine indefinitely, or returns "" if none.
// Function-literal bodies are skipped: their blocking belongs to the
// goroutine (or callback invoker) that runs them, which is where the
// context check applies instead.
func firstBlockingOp(pass *Pass, body *ast.BlockStmt) string {
	op := ""
	// Communication ops of a default-carrying select are non-blocking
	// polls; they are collected here so the walk skips them while still
	// inspecting the clause bodies.
	nonBlocking := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if op != "" || nonBlocking[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if selectHasDefault(n) {
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						nonBlocking[cc.Comm] = true
					}
				}
				return true
			}
			op = "a select"
			return false
		case *ast.SendStmt:
			op = "a channel send"
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				op = "a channel receive"
				return false
			}
		case *ast.CallExpr:
			switch calleeFullName(pass, n) {
			case "time.Sleep":
				op = "time.Sleep"
				return false
			case "(*sync.WaitGroup).Wait":
				op = "sync.WaitGroup.Wait"
				return false
			}
		}
		return true
	})
	return op
}

// selectHasDefault reports whether the select carries a default clause
// (making it a non-blocking poll).
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// calleeFullName resolves a call's callee to its types.Func full name
// (e.g. "time.Sleep", "(*sync.WaitGroup).Wait"), or "" when the callee
// is not a named function or method.
func calleeFullName(pass *Pass, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}
