// Command experiments regenerates every table and figure of the
// reproduction (DESIGN.md §4, EXPERIMENTS.md):
//
//	experiments            # run all of E1..E9
//	experiments -only E2   # run one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

import "repro/internal/experiments"

func main() {
	only := flag.String("only", "", "run a single experiment (E1..E9, E5b)")
	flag.Parse()

	ran, failed := 0, 0
	for _, e := range experiments.All() {
		if *only != "" && !strings.EqualFold(e.ID, *only) {
			continue
		}
		ran++
		table, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Println(table.Format())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment %q\n", *only)
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
