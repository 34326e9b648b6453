package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// mustReach is the flow-light walk behind releasecheck and timerleak:
// it traces one acquired variable obj through body. A call of
// obj.<discharge>() (made or deferred) discharges the obligation, a
// selector use (out.Lengths, out.Predictions(), t.C, t.Reset) merely
// uses obj, and any other mention after the acquisition — return,
// argument, store, alias — escapes it to a new owner. never is
// reported at acq when obj is neither discharged nor escaped;
// otherwise each return between acq and the first discharge or escape
// is the early-return leak, reported with early, a format taking the
// acquisition's line.
func mustReach(pass *Pass, body *ast.BlockStmt, acq *ast.AssignStmt, obj types.Object, discharge, never, early string) {
	guardPos := token.Pos(-1) // position of the first discharge or escape
	note := func(pos token.Pos) {
		if guardPos < 0 || pos < guardPos {
			guardPos = pos
		}
	}
	var deferStack []*ast.DeferStmt
	discharged, escaped := false, false

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferStack = append(deferStack, n)
			ast.Inspect(n.Call, visit)
			deferStack = deferStack[:len(deferStack)-1]
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					if sel.Sel.Name == discharge {
						discharged = true
						// A deferred discharge guards from the defer
						// statement onward.
						pos := n.Pos()
						if len(deferStack) > 0 {
							pos = deferStack[len(deferStack)-1].Pos()
						}
						note(pos)
					}
					// Method call on obj: receiver use, not an escape;
					// still scan the arguments.
					for _, arg := range n.Args {
						ast.Inspect(arg, visit)
					}
					return false
				}
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				return false // field or channel read: not an escape
			}
		case *ast.Ident:
			if pass.TypesInfo.Uses[n] == obj && n.Pos() > acq.End() {
				// Any other use after acquisition conservatively
				// transfers the obligation to the new holder.
				escaped = true
				note(n.Pos())
			}
		}
		return true
	}
	ast.Inspect(body, visit)

	if !discharged && !escaped {
		pass.Reportf(acq.Pos(), "%s", never)
		return
	}
	// Comparing the return's END against the guard keeps `return out`
	// clean: the escape there is inside the return statement itself.
	line := pass.Fset.Position(acq.Pos()).Line
	ast.Inspect(body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok && ret.Pos() > acq.End() && (guardPos < 0 || ret.End() <= guardPos) {
			pass.Reportf(ret.Pos(), early, line)
		}
		return true
	})
}
