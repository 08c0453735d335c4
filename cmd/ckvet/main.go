// Command ckvet runs the repo's domain-specific analyzer suite — the
// compile-time enforcement of the invariants the paper reproduction
// depends on (0-alloc steady state, ctx flow to every round barrier,
// static metric registration, lock liveness).
//
// Usage:
//
//	ckvet [-c catalog] [packages]
//
// With no package patterns it analyzes ./... — non-test files only, by
// design: the tests violate these invariants on purpose. Exits 1 when any
// finding survives //ckvet:ignore suppression, so `make lint` and CI can
// block on it.
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
