package analysis

import (
	"go/ast"
)

// Paniccheck preserves the worker-pool fault-isolation contract: a
// panic inside a goroutine that no caller can recover kills the whole
// process, which is exactly what the fault-injection campaign guards
// against. Two rules:
//
//  1. Function literals handed to runChunks, capsnet's one chunk
//     dispatcher, must not call panic directly. Worker bodies signal
//     failure by writing results the caller validates; panics that do
//     occur (index errors, injected faults) are the wrapper's job.
//  2. The chunkJob.run method every chunk of a dispatch executes
//     through — inline or on a pool worker — must keep a deferred
//     recover() wrapper, so worker panics are captured and re-raised
//     on the calling goroutine. Deleting the wrapper would turn a
//     poisoned batch into a process crash and is the regression this
//     rule exists to block.
//
// Test files are exempt: the robustness tests panic inside worker
// bodies on purpose to prove rule 2's wrapper works.
var Paniccheck = &Analyzer{
	Name: "paniccheck",
	Doc:  "worker bodies must not panic directly and pool dispatchers must keep their recover wrapper",
	Run:  runPaniccheck,
}

// dispatcherFuncs names the functions rule 2 protects: receiver type
// name (empty for plain functions) and function name.
var dispatcherFuncs = []struct{ recv, name string }{
	{"chunkJob", "run"},
}

// workerTakers names the call targets whose function-literal arguments
// are worker bodies (rule 1).
var workerTakers = map[string]bool{
	"runChunks": true,
}

func runPaniccheck(pass *Pass) error {
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if workerTakers[calleeName(n)] {
					for _, arg := range n.Args {
						lit, ok := arg.(*ast.FuncLit)
						if !ok {
							continue
						}
						reportDirectPanics(pass, lit, calleeName(n))
					}
				}
			case *ast.FuncDecl:
				checkDispatcher(pass, n)
			}
			return true
		})
	}
	return nil
}

// reportDirectPanics flags panic calls lexically inside a worker body.
func reportDirectPanics(pass *Pass, lit *ast.FuncLit, taker string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && isBuiltin(pass, call.Fun, "panic") {
			pass.Reportf(call.Pos(), "worker body passed to %s calls panic directly; report failure through results the caller checks (the pool's recover wrapper is for faults, not control flow)", taker)
		}
		return true
	})
}

// checkDispatcher applies rule 2 to matching function declarations.
func checkDispatcher(pass *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	recv := ""
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		recv = receiverTypeName(fn.Recv.List[0].Type)
	}
	protected := false
	for _, d := range dispatcherFuncs {
		if d.name == name && d.recv == recv {
			protected = true
			break
		}
	}
	if !protected || fn.Body == nil {
		return
	}
	if !hasDeferredRecover(fn.Body) {
		pass.Reportf(fn.Name.Pos(), "%s must keep its deferred recover-and-repanic wrapper: worker panics must re-raise on the caller, not kill the process", name)
	}
}

// hasDeferredRecover reports whether body contains
// defer func() { … recover() … }() anywhere (including inside worker
// goroutine literals).
func hasDeferredRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok || found {
			return !found
		}
		lit, ok := def.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" && len(call.Args) == 0 {
					found = true
				}
			}
			return !found
		})
		return !found
	})
	return found
}

// receiverTypeName extracts the base type name from a receiver
// expression (*chunkJob -> chunkJob).
func receiverTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.IndexExpr: // generic receiver
		return receiverTypeName(e.X)
	}
	return ""
}
