// Command pimcaps-bench regenerates the paper's evaluation tables and
// figures. With no flags it runs every experiment; -exp selects one by
// id (fig4, fig5, fig6a, fig6b, fig7, fig15a, fig15b, fig16a, fig16b,
// fig17a, fig17b, fig18, table5, overhead); -list shows the ids;
// -markdown renders GitHub-flavored tables.
//
// It is also the CLI for the benchmark-regression gate: -bench-input
// and -parent-input take `go test -bench` output of a change and of its
// parent, run on the same host, and the gate exits 1 if the change
// regresses (see internal/benchgate and `make bench-gate`); -out writes
// both sides' medians and the verdict as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pimcapsnet/internal/benchgate"
	"pimcapsnet/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	markdown := flag.Bool("markdown", false, "render tables as markdown")
	csvOut := flag.Bool("csv", false, "render tables as CSV")

	benchInput := flag.String("bench-input", "", "path to the change's `go test -bench` output; with -parent-input, gates it and exits 1 on regression")
	parentInput := flag.String("parent-input", "", "path to the parent's `go test -bench` output, run on the same host")
	out := flag.String("out", "", "write both sides' medians and the gate verdict as JSON (the CI artifact)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *benchInput != "" || *parentInput != "" || *out != "" {
		if *benchInput == "" || *parentInput == "" {
			fatal(fmt.Errorf("pimcaps-bench: the gate needs both -bench-input and -parent-input"))
		}
		runGate(*benchInput, *parentInput, *out)
		return
	}

	ids := experiments.IDs()
	if *exp != "" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		start := time.Now()
		t, err := experiments.Run(id)
		if err != nil {
			fatal(err)
		}
		switch {
		case *markdown:
			t.Markdown(os.Stdout)
		case *csvOut:
			t.CSV(os.Stdout)
		default:
			t.Fprint(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "[%s finished in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func runGate(changePath, parentPath, outPath string) {
	change, parent := medians(changePath), medians(parentPath)
	rep := benchgate.Check(parent, change)
	if outPath != "" {
		data, err := json.MarshalIndent(struct {
			Geomean  float64                   `json:"geomean"`
			Failures []string                  `json:"failures"`
			Parent   map[string]benchgate.Stat `json:"parent"`
			Change   map[string]benchgate.Stat `json:"change"`
		}{rep.Geomean, rep.Failures, parent, change}, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	for _, line := range rep.Lines {
		fmt.Println(line)
	}
	fmt.Printf("hot-path geomean ns/op ratio (change/parent): %.3f (fail above %.2f)\n",
		rep.Geomean, 1+benchgate.Tolerance)
	if !rep.OK() {
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "GATE FAIL: "+f)
		}
		os.Exit(1)
	}
	fmt.Println("benchmark gate: PASS")
}

// medians parses one side's `go test -bench` output to per-benchmark
// medians.
func medians(path string) map[string]benchgate.Stat {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runs, err := benchgate.Parse(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return benchgate.Medians(runs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
