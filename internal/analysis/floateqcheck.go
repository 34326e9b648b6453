package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BitexactDirective exempts a whole file from floateqcheck: the
// repository's bit-identity tests (arena reuse, routing chunk edges,
// serialization round-trips, batching invariance) compare exact bit
// patterns on purpose — that is the property under test.
const BitexactDirective = "//pimcaps:bitexact"

// Floateqcheck flags == and != between floating-point expressions.
// The reproduction's numerics are deliberately exact in places (the
// routing guard re-runs NaN/Inf samples with exact math, checkpoints
// must round-trip bit-identically), so the codebase compares floats
// more than most — but outside those bit-exact contexts an equality
// comparison is almost always a bug that NaN payloads, fused
// multiply-adds, or the PE approximation tables will eventually
// falsify.
//
// Exemptions, in order of preference:
//   - comparisons against a compile-time constant (x == 0 is an exact
//     zero/denormal test, the skip-zero kernel guard cij == 0, etc.);
//   - self-comparison (x != x), the standard NaN idiom;
//   - files marked //pimcaps:bitexact (bit-identity test files);
//   - a //lint:ignore pimcaps/floateqcheck directive for single sites.
var Floateqcheck = &Analyzer{
	Name: "floateqcheck",
	Doc:  "floats must not be compared with == or != outside bit-exact contexts",
	Run:  runFloateqcheck,
}

func runFloateqcheck(pass *Pass) error {
	for _, file := range pass.Files {
		if fileHasDirective(file, BitexactDirective) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || bin.Op != token.EQL && bin.Op != token.NEQ {
				return true
			}
			xt, xok := pass.TypesInfo.Types[bin.X]
			yt, yok := pass.TypesInfo.Types[bin.Y]
			if !xok || !yok || !isFloat(xt.Type) && !isFloat(yt.Type) {
				return true
			}
			if xt.Value != nil || yt.Value != nil {
				return true // constant comparand: an intentional exact test
			}
			if types.ExprString(bin.X) == types.ExprString(bin.Y) {
				return true // x != x: the NaN idiom
			}
			pass.Reportf(bin.OpPos, "floating-point %s comparison; use a tolerance, compare math.Float32bits, or mark the file %s if it tests bit identity", bin.Op, BitexactDirective)
			return true
		})
	}
	return nil
}

// isFloat reports whether t's core type is a floating-point kind.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
