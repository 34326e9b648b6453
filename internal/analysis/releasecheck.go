package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Releasecheck enforces the scratch-arena ownership contract from the
// allocation-free forward path: every *capsnet.Output obtained from
// Network.Forward/ForwardBatch must reach Release() on all paths, or
// visibly escape to a caller who inherits the obligation. An Output
// that is dropped keeps a whole forward-pass arena out of the
// Network's pool, so the next request allocates a fresh slab and the
// steady-state 0 allocs/op guarantee quietly dies. The serve handler
// (internal/serve/server.go) is the model: copy what the response
// needs, then defer out.Release().
//
// The check is flow-light by design: a function that acquires an
// Output must (a) call or defer Release on it, or (b) let it escape
// (return it, store it, pass it to another function) — and no return
// statement may appear between the acquisition and the first
// Release/escape, the classic early-return leak. Test files are
// exempt: tests exercise the unreleased (pre-arena, safe-but-unpooled)
// behavior on purpose.
var Releasecheck = &Analyzer{
	Name: "releasecheck",
	Doc:  "capsnet.Output values must be Release()d on every path or escape to the caller",
	Run:  runReleasecheck,
}

// isCapsnetOutput reports whether t is *Output for an Output type
// declared in a package whose import path ends in "capsnet" (matching
// both the real internal/capsnet and analysistest fakes).
func isCapsnetOutput(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != "Output" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "capsnet" || strings.HasSuffix(path, "/capsnet")
}

func runReleasecheck(pass *Pass) error {
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkFuncReleases(pass, fn)
			return true
		})
	}
	return nil
}

// checkFuncReleases inspects one function for Output acquisitions and
// their release/escape fate.
func checkFuncReleases(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures are separate scopes; keep it simple
		case *ast.ExprStmt:
			// A bare `net.Forward(x, m)` drops the Output on the floor
			// (a chained .Release() consumes it and is fine).
			if call, ok := n.X.(*ast.CallExpr); ok && isCapsnetOutput(typeOf(pass, call)) {
				pass.Reportf(call.Pos(), "result of %s is a capsnet.Output that is never released; call Release() when done with it", calleeName(call))
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || !isCapsnetOutput(typeOf(pass, call)) {
				return true
			}
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					if !ok {
						continue
					}
					pass.Reportf(call.Pos(), "capsnet.Output from %s is discarded without Release()", calleeName(call))
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil || !isCapsnetOutput(obj.Type()) {
					continue
				}
				mustReach(pass, fn.Body, n, obj, "Release",
					fmt.Sprintf("capsnet.Output from %s is never released; call or defer %s.Release()", calleeName(call), obj.Name()),
					"return may leak the capsnet.Output acquired at line %d: Release is not yet deferred on this path")
			}
		}
		return true
	})
}

// typeOf returns the static type of e, or nil.
func typeOf(pass *Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// calleeName renders the called function for diagnostics.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	default:
		return "call"
	}
}
