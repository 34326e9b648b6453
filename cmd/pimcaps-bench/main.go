// Command pimcaps-bench regenerates the paper's evaluation tables and
// figures. With no flags it runs every experiment; -exp selects one by
// id (fig4, fig5, fig6a, fig6b, fig7, fig15a, fig15b, fig16a, fig16b,
// fig17a, fig17b, fig18, table5, overhead); -list shows the ids;
// -markdown renders GitHub-flavored tables.
//
// It is also the CLI for the benchmark-regression gate: -bench-input
// parses `go test -bench` output and, combined with -update-baseline,
// -check-baseline, or -out, maintains and enforces BENCH_BASELINE.json
// (see internal/benchgate and `make bench-gate`).
package main

import (
	"flag"
	"fmt"
	"io"
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

	benchInput := flag.String("bench-input", "", "path to `go test -bench` output to parse ('-' for stdin); enables gate mode")
	baseline := flag.String("baseline", "BENCH_BASELINE.json", "benchmark baseline JSON path")
	updateBaseline := flag.Bool("update-baseline", false, "write -bench-input medians to -baseline, hot list = benchgate.DefaultHot ∩ the benchmarks in the run")
	checkBaseline := flag.Bool("check-baseline", false, "gate -bench-input medians against -baseline; exit 1 on regression")
	out := flag.String("out", "", "write -bench-input medians as JSON (the CI artifact)")
	emitBaselineText := flag.Bool("emit-baseline-text", false, "print -baseline in `go test -bench` text format (for benchstat) and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *emitBaselineText {
		base, err := benchgate.Load(*baseline)
		if err != nil {
			fatal(err)
		}
		benchgate.EmitBenchFormat(os.Stdout, base)
		return
	}
	if *benchInput != "" {
		runGate(*benchInput, *baseline, *updateBaseline, *checkBaseline, *out)
		return
	}
	if *updateBaseline || *checkBaseline || *out != "" {
		fatal(fmt.Errorf("pimcaps-bench: -update-baseline/-check-baseline/-out need -bench-input"))
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

func runGate(input, baselinePath string, update, check bool, outPath string) {
	var r io.Reader = os.Stdin
	if input != "-" {
		f, err := os.Open(input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	runs, err := benchgate.Parse(r)
	if err != nil {
		fatal(err)
	}
	med := benchgate.Medians(runs)

	if outPath != "" {
		cur := &benchgate.Baseline{Hot: benchgate.HotIn(med), Benchmarks: med}
		if err := benchgate.Save(outPath, cur); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", outPath, len(med))
	}

	if update {
		hot := benchgate.HotIn(med)
		if err := benchgate.Save(baselinePath, &benchgate.Baseline{Hot: hot, Benchmarks: med}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "updated %s (%d benchmarks, %d hot)\n", baselinePath, len(med), len(hot))
	}

	if check {
		base, err := benchgate.Load(baselinePath)
		if err != nil {
			fatal(err)
		}
		rep := benchgate.Check(base, med)
		for _, line := range rep.Lines {
			fmt.Println(line)
		}
		fmt.Printf("hot-path geomean ns/op ratio: %.3f (fail above %.2f)\n",
			rep.Geomean, 1+benchgate.Tolerance)
		if !rep.OK() {
			for _, f := range rep.Failures {
				fmt.Fprintln(os.Stderr, "GATE FAIL: "+f)
			}
			os.Exit(1)
		}
		fmt.Println("benchmark gate: PASS")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
