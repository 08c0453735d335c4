package graph

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"cycledetect/internal/xrand"
)

// genArgs is the argument count of every generator BuildGen knows.
var genArgs = map[string]int{
	"cycle": 1, "path": 1, "wheel": 1, "complete": 1, "hypercube": 1, "tree": 1,
	"grid": 2, "torus": 2, "kbipartite": 2, "gnm": 2, "theta": 2, "far": 2, "planted": 2,
}

// BuildGen builds the graph a generator spec names, the -gen syntax of
// cmd/ckfree and cmd/graphgen: "name:a,b", such as cycle:12, gnm:200,800,
// far:120,0.05 or planted:30,3. Every argument is an integer except far's
// second, its ε. The k-dependent generators (far, planted) plant Ck, and the
// random ones draw from xrand.New(seed). For far and planted, note says
// what was planted (the packing, or the edge the cycle runs through).
//
// A wrong argument count, a non-integer where an integer is needed, an
// unknown name and an argument the generator refuses are errors; a
// generator's panic is recovered into one, as sweep.BuildGraph does.
func BuildGen(spec string, k int, seed uint64) (g *Graph, note string, err error) {
	name, argStr, _ := strings.Cut(spec, ":")
	want, ok := genArgs[name]
	if !ok {
		names := slices.Sorted(maps.Keys(genArgs))
		return nil, "", fmt.Errorf("graph: unknown generator %q (try %s)", name, strings.Join(names, ", "))
	}
	var parts []string
	if argStr != "" {
		parts = strings.Split(argStr, ",")
	}
	if len(parts) != want {
		return nil, "", fmt.Errorf("graph: generator %q needs %d arguments, got %d", name, want, len(parts))
	}
	args := make([]int, want)
	var eps float64
	for i, part := range parts {
		if name == "far" && i == 1 {
			if eps, err = strconv.ParseFloat(part, 64); err != nil {
				return nil, "", fmt.Errorf("graph: generator %q: bad ε %q", name, part)
			}
			continue
		}
		if args[i], err = strconv.Atoi(part); err != nil {
			return nil, "", fmt.Errorf("graph: generator %q: argument %d is %q, want an integer", name, i+1, part)
		}
	}
	defer func() {
		if p := recover(); p != nil {
			g, note, err = nil, "", fmt.Errorf("graph: building %s: %v", spec, p)
		}
	}()
	rng := xrand.New(seed)
	a := args[0]
	switch name {
	case "cycle":
		return Cycle(a), "", nil
	case "path":
		return Path(a), "", nil
	case "wheel":
		return Wheel(a), "", nil
	case "complete":
		return Complete(a), "", nil
	case "hypercube":
		return Hypercube(a), "", nil
	case "tree":
		return RandomTree(a, rng), "", nil
	case "grid":
		return Grid(a, args[1]), "", nil
	case "torus":
		return Torus(a, args[1]), "", nil
	case "kbipartite":
		return CompleteBipartite(a, args[1]), "", nil
	case "gnm":
		return ConnectedGNM(a, args[1], rng), "", nil
	case "theta":
		return Theta(a, args[1], rng), "", nil
	case "far":
		g, q := FarFromCkFree(a, k, eps, rng)
		return g, fmt.Sprintf("planted %d edge-disjoint C%d (certified %.3f-far)", q, k, float64(q)/float64(g.M())), nil
	default: // planted
		g, e := PlantedCycle(a, k, args[1], rng)
		return g, fmt.Sprintf("planted C%d through edge %v", k, e), nil
	}
}
