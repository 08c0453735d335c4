// Command graphgen emits graphs in the repository's edge-list text format,
// for use with cmd/ckfree -graph or external tooling.
//
//	graphgen -gen gnm:500,2000 -seed 3 > g.graph
//	graphgen -gen far:200,0.05 -k 5     > far.graph
package main

import (
	"flag"
	"fmt"
	"os"

	"cycledetect/internal/graph"
)

func main() {
	var (
		gen  = flag.String("gen", "", "generator spec (see cmd/ckfree)")
		k    = flag.Int("k", 5, "cycle length for k-dependent generators (far, planted)")
		seed = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()
	if *gen == "" {
		fmt.Fprintln(os.Stderr, "graphgen: -gen is required")
		os.Exit(2)
	}
	g, note, err := graph.BuildGen(*gen, *k, *seed)
	if note != "" {
		fmt.Fprintln(os.Stderr, "graphgen:", note)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	if err := graph.WriteText(os.Stdout, g); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}
