// Command ckfree runs the distributed Ck-freeness tester on a graph.
//
// The graph comes either from a file in the edge-list format (see
// cmd/graphgen) or from a built-in generator spec. Examples:
//
//	ckfree -k 5 -eps 0.1 -gen cycle:12
//	ckfree -k 4 -eps 0.05 -gen gnm:200,800 -seed 7
//	ckfree -k 6 -graph my.graph
//	ckfree -k 7 -gen wheel:20 -edge 0,1        # deterministic Phase-2 only
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cycledetect/internal/central"
	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
)

func main() {
	var (
		k       = flag.Int("k", 3, "cycle length to test for (>= 3)")
		eps     = flag.Float64("eps", 0.1, "property-testing parameter in (0,1)")
		reps    = flag.Int("reps", 0, "override repetition count (0 = derive from eps)")
		seed    = flag.Uint64("seed", 1, "random seed")
		file    = flag.String("graph", "", "graph file (edge-list format)")
		gen     = flag.String("gen", "", "generator spec, e.g. cycle:12, gnm:100,400, wheel:9, grid:4,6, far:120,0.05")
		edge    = flag.String("edge", "", "run the deterministic per-edge detector for 'u,v' instead of the full tester")
		oracle  = flag.Bool("oracle", false, "also run the centralized oracle and compare")
		verbose = flag.Bool("v", false, "print traffic statistics")
	)
	flag.Parse()

	g, err := loadGraph(*file, *gen, *k, *seed)
	if err != nil {
		fatal(err)
	}

	var prog network.Program
	if *edge != "" {
		u, v, err := parseEdge(*edge)
		if err != nil {
			fatal(err)
		}
		prog = &core.EdgeDetector{K: *k, U: u, V: v}
	} else {
		prog = &core.Tester{K: *k, Eps: *eps, Reps: *reps}
	}

	// Build-once/run-once through the reusable-network layer (a future
	// multi-query mode would reuse nw across runs).
	nw, err := network.New(g, network.Options{})
	if err != nil {
		fatal(err)
	}
	defer nw.Close()
	res, err := nw.RunProgram(prog, *seed)
	if err != nil {
		fatal(err)
	}
	dec := core.Summarize(res.Outputs, res.IDs)

	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("rounds: %d\n", res.Stats.Rounds)
	if dec.Reject {
		fmt.Printf("verdict: REJECT — C%d detected\n", *k)
		fmt.Printf("witness: %v\n", dec.Witness)
		fmt.Printf("rejecting nodes: %v\n", dec.RejectingIDs)
	} else {
		fmt.Printf("verdict: ACCEPT — no C%d found\n", *k)
	}
	if *verbose {
		fmt.Printf("messages: %d  total: %d bits  max message: %d bits  max sequences: %d\n",
			res.Stats.MessagesSent, res.Stats.TotalBits, res.Stats.MaxMessageBits, dec.MaxSeqs)
	}
	if *oracle {
		truth := central.HasCk(g, *k)
		fmt.Printf("oracle: graph %s a C%d\n", map[bool]string{true: "CONTAINS", false: "does not contain"}[truth], *k)
		if dec.Reject && !truth {
			fatal(fmt.Errorf("SOUNDNESS VIOLATION: rejected a C%d-free graph", *k))
		}
	}
}

// loadGraph reads or generates the graph and refuses one the tester cannot
// run on: an empty graph, as the library's ErrEmptyGraph does, or a
// disconnected one.
func loadGraph(file, gen string, k int, seed uint64) (*graph.Graph, error) {
	var (
		g   *graph.Graph
		err error
	)
	switch {
	case file != "" && gen != "":
		return nil, fmt.Errorf("give either -graph or -gen, not both")
	case file != "":
		g, err = readFile(file)
	case gen != "":
		var note string
		g, note, err = graph.BuildGen(gen, k, seed)
		if note != "" {
			fmt.Fprintln(os.Stderr, "ckfree:", note)
		}
	default:
		return nil, fmt.Errorf("one of -graph or -gen is required")
	}
	switch {
	case err != nil:
		return nil, err
	case g.N() == 0:
		return nil, fmt.Errorf("graph is empty (the tester needs at least one vertex)")
	case !graph.Connected(g):
		return nil, fmt.Errorf("graph is not connected (the CONGEST model requires a connected network)")
	}
	return g, nil
}

func readFile(name string) (*graph.Graph, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadText(f)
}

func parseEdge(s string) (int64, int64, error) {
	a, b, ok := strings.Cut(s, ",")
	if !ok {
		return 0, 0, fmt.Errorf("edge must be 'u,v'")
	}
	u, err1 := strconv.ParseInt(strings.TrimSpace(a), 10, 64)
	v, err2 := strconv.ParseInt(strings.TrimSpace(b), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad edge %q", s)
	}
	return u, v, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ckfree:", err)
	os.Exit(1)
}
