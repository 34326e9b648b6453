package analysis

import (
	"strings"
)

// Layercheck enforces the repository's import DAG from a declarative
// table. The layering is what keeps the reproduction honest: the
// numeric bottom (tensor, fp32) must stay dependency-free so kernels
// are portable and benchmarkable in isolation; capsnet must never
// grow an edge to the serving/observability/fault stack (the
// StageTimer hook exists precisely so obs can observe forward passes
// without capsnet importing it); and cmd binaries stay independent
// composition roots. Rules match on trailing path segments so the
// analysistest fakes under testdata exercise the same table as the
// real tree. Test files are exempt — integration tests may wire layers
// together freely.
var Layercheck = &Analyzer{
	Name: "layercheck",
	Doc:  "imports must respect the layer table (tensor/fp32 at the bottom, capsnet below obs/serve/fault, cmds independent)",
	Run:  runLayercheck,
}

// A layerRule constrains the imports of packages matching Pkg (a
// trailing-segment pattern). If StdlibOnly is set, no project-internal
// import is allowed except those matching an Allow pattern; otherwise
// imports matching any Forbid pattern (consecutive-segment match) are
// rejected.
type layerRule struct {
	Pkg        string
	StdlibOnly bool
	Allow      []string
	Forbid     []string
	Why        string
}

var layerRules = []layerRule{
	{
		Pkg:        "internal/tensor",
		StdlibOnly: true,
		Why:        "tensor is the numeric bottom layer and may import only the standard library",
	},
	{
		Pkg:        "internal/fp32",
		StdlibOnly: true,
		Why:        "fp32 is the numeric bottom layer and may import only the standard library",
	},
	{
		Pkg:        "internal/wire",
		StdlibOnly: true,
		Why:        "wire is the serving protocol shared by serve, cluster and their clients across the tier boundary; importing either side would create a cycle through the layer DAG",
	},
	{
		Pkg:        "internal/obs",
		StdlibOnly: true,
		Allow:      []string{"internal/trace"},
		Why:        "obs is imported by every tier, so beyond the trace-event writer it must stay standard-library-only; an edge to serve or cluster would invert the layer DAG",
	},
	{
		Pkg:        "internal/loadgen",
		StdlibOnly: true,
		Allow:      []string{"internal/obs"},
		Why:        "the load generator measures the serving stack from outside, so beyond the obs histograms it records into it must stay standard-library-only; an edge into the stack under test would let the harness share the very fate it exists to observe",
	},
	{
		Pkg:    "internal/capsnet",
		Forbid: []string{"internal/obs", "internal/serve", "internal/fault"},
		Why:    "capsnet must not depend on the serving stack; observability reaches it through the StageTimer hook",
	},
	{
		Pkg:    "internal/cluster",
		Forbid: []string{"internal/capsnet", "internal/serve", "internal/tensor", "internal/loadgen"},
		Why:    "the replica tier is model-free and measured from outside: it moves opaque bytes between capsnet-serve processes, speaks only the serving HTTP protocol, and never imports the load harness that drives it",
	},
	{
		Pkg:    "cmd/capsnet-load",
		Forbid: []string{"internal/capsnet", "internal/serve", "internal/tensor", "internal/fp32"},
		Why:    "the load client is model-free and measures the serving stack from outside: it speaks the protocol in internal/wire and never links the engine it drives",
	},
	{
		Pkg:    "examples/serve",
		Forbid: []string{"internal/capsnet", "internal/serve", "internal/tensor", "internal/fp32"},
		Why:    "the example client is model-free and talks to the serving stack from outside: it speaks the protocol in internal/wire and never links the engine it calls",
	},
	{
		Pkg:    "internal/serve",
		Forbid: []string{"internal/cluster", "internal/loadgen"},
		Why:    "a replica must not know about the tier above it nor the harness that measures it; the router observes replicas via /readyz, never the reverse",
	},
}

func runLayercheck(pass *Pass) error {
	pkgPath := strings.TrimSuffix(pass.Pkg.Path(), "_test")
	var active []layerRule
	for _, r := range layerRules {
		if hasSegments(pkgPath, r.Pkg) {
			active = append(active, r)
		}
	}
	isCmd := cmdName(pkgPath) != ""

	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			for _, r := range active {
				if r.StdlibOnly && pass.IsProjectPkg != nil && pass.IsProjectPkg(path) && !matchesAny(path, r.Allow) {
					pass.Reportf(imp.Pos(), "%s must not import %s: %s", r.Pkg, path, r.Why)
					continue
				}
				for _, f := range r.Forbid {
					if hasSegments(path, f) {
						pass.Reportf(imp.Pos(), "%s must not import %s: %s", r.Pkg, path, r.Why)
					}
				}
			}
			if isCmd {
				if c := cmdName(path); c != "" && c != cmdName(pkgPath) {
					pass.Reportf(imp.Pos(), "cmd/%s must not import cmd/%s: commands are independent composition roots; share code via internal packages", cmdName(pkgPath), c)
				}
			}
		}
	}
	return nil
}

// matchesAny reports whether path matches any of the patterns under
// hasSegments semantics.
func matchesAny(path string, patterns []string) bool {
	for _, p := range patterns {
		if hasSegments(path, p) {
			return true
		}
	}
	return false
}

// hasSegments reports whether path contains pattern's "/"-separated
// segments consecutively (so "internal/obs" matches
// "pimcapsnet/internal/obs" but not "internal/observe").
func hasSegments(path, pattern string) bool {
	segs := strings.Split(path, "/")
	want := strings.Split(pattern, "/")
	for i := 0; i+len(want) <= len(segs); i++ {
		match := true
		for j, w := range want {
			if segs[i+j] != w {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// cmdName returns the binary name if path is a cmd/<name> package
// (possibly below a module prefix), else "".
func cmdName(path string) string {
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if s == "cmd" && i+1 < len(segs) {
			return segs[i+1]
		}
	}
	return ""
}
