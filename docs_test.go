package pimcapsnet_bench

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"pimcapsnet/internal/experiments"
)

// docPath matches a package path opening a line or a markdown table
// row, the way README's architecture block and DESIGN.md §3's table
// name one package each.
var docPath = regexp.MustCompile("(?m)^(?:\\| `)?((?:internal|cmd)/[\\w-]+)")

// TestDocsNameEveryPackage keeps README's architecture block and
// DESIGN.md §3's inventory in step with the tree: each names every
// internal/* and cmd/* package `go list` reports, and nothing else.
func TestDocsNameEveryPackage(t *testing.T) {
	out, err := exec.Command("go", "list", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := map[string]bool{}
	for _, path := range strings.Fields(string(out)) {
		if parts := strings.Split(path, "/"); len(parts) >= 3 && (parts[1] == "internal" || parts[1] == "cmd") {
			pkgs[parts[1]+"/"+parts[2]] = true
		}
	}
	for _, doc := range []struct{ file, heading string }{
		{"README.md", "## Architecture"},
		{"DESIGN.md", "## 3. "},
	} {
		named := map[string]bool{}
		for _, m := range docPath.FindAllStringSubmatch(section(t, doc.file, doc.heading), -1) {
			named[m[1]] = true
		}
		for p := range pkgs {
			if !named[p] {
				t.Errorf("%s %q does not name package %s", doc.file, doc.heading, p)
			}
		}
		for p := range named {
			if !pkgs[p] {
				t.Errorf("%s %q names %s, which is not a package", doc.file, doc.heading, p)
			}
		}
	}
}

// section returns file's text from the line starting with heading to
// the next "## " heading.
func section(t *testing.T, file, heading string) string {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	i := strings.Index(text, "\n"+heading)
	if i < 0 {
		t.Fatalf("%s has no %q heading", file, heading)
	}
	text = text[i+1+len(heading):]
	if j := strings.Index(text, "\n## "); j >= 0 {
		text = text[:j]
	}
	return text
}

// TestExperimentsMarkdownCurrent regenerates EXPERIMENTS.md through
// the same code as cmd/pimcaps-report, skipping only Table5 (its
// twelve trained proxies take minutes), and requires the committed
// file to match byte for byte everywhere outside the Table5 section.
func TestExperimentsMarkdownCurrent(t *testing.T) {
	var buf bytes.Buffer
	if err := experiments.WriteReport(&buf, map[string]bool{"table5": true}, nil); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	want := withoutSection(t, "regenerated", buf.String(), "### table5 — skipped")
	got := withoutSection(t, "EXPERIMENTS.md", string(committed), "### Table5 — ")
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("EXPERIMENTS.md is stale outside Table5 (rerun go run ./cmd/pimcaps-report, keeping the Table5 section); first difference at line %d of the compared text:\ncommitted:   %q\nregenerated: %q", i+1, g, w)
		}
	}
}

// withoutSection cuts the "### " section opening with heading out of
// text, up to the next "### " heading.
func withoutSection(t *testing.T, name, text, heading string) string {
	t.Helper()
	i := strings.Index(text, "\n"+heading)
	if i < 0 {
		t.Fatalf("%s has no %q section", name, heading)
	}
	rest := text[i+1:]
	j := strings.Index(rest, "\n### ")
	if j < 0 {
		return text[:i+1]
	}
	return text[:i+1] + rest[j+1:]
}
