// Command ckvet runs the repo's own analyzer suite: lockhold, which
// reports a blocking call made while a mutex is held (the one invariant no
// deterministic test can hold), and ckvetdirective, which audits the
// suite's ignore directives. The invariants that tests hold exactly are
// left to the tests; README "Static analysis" maps each to its tests.
//
// Usage:
//
//	ckvet [-c] [packages]
//
// -c prints the analyzer catalog. With no package patterns it analyzes
// ./... — non-test files only, by design. Exits 1 when any finding
// survives an ignore directive, so `make lint` and CI can block on it.
package main

import (
	"flag"
	"fmt"
	"os"

	"cycledetect/internal/analysis"
)

func main() {
	catalog := flag.Bool("c", false, "print the analyzer catalog and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ckvet [-c] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *catalog {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ckvet: %d findings\n", len(diags))
		os.Exit(1)
	}
}
