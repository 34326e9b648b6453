// Command pimcaps-report regenerates EXPERIMENTS.md: it runs every
// registered experiment (experiments.WriteReport) and writes the
// markdown archive with the paper-vs-measured summary up front. Every
// section but Table5 (~14 min) regenerates in about a second, and the
// root package's TestExperimentsMarkdownCurrent holds the committed
// file to those bytes.
//
// Usage:
//
//	pimcaps-report [-out EXPERIMENTS.md] [-skip table5]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pimcapsnet/internal/experiments"
)

func main() {
	out := flag.String("out", "EXPERIMENTS.md", "output path")
	skip := flag.String("skip", "", "comma-separated experiment ids to skip")
	flag.Parse()

	skipped := map[string]bool{}
	for _, id := range strings.Split(*skip, ",") {
		if id != "" {
			skipped[id] = true
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()

	if err := experiments.WriteReport(f, skipped, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
