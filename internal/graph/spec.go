package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"cycledetect/internal/xrand"
)

// MaxFamilyEdges bounds a generated graph's edge count, so that a spec of
// a few bytes cannot make a build allocate without limit. It is also the
// longest edge list /query accepts.
const MaxFamilyEdges = 1 << 20

// Spec names one graph of the catalog. The -gen string of cmd/ckfree and
// cmd/graphgen (BuildGen) and the JSON object {family, n, m} of /query and
// sweep specs (FamilySpec) both resolve to a Spec, so one spec builds one
// graph on every front end. A and B are the integer arguments in -gen order
// (n and m for gnm); far's second is Eps. far and planted plant Ck, k = K.
type Spec struct {
	Family string
	A, B   int
	K      int
	Eps    float64
	Seed   uint64
}

// ErrCannotPlant marks a refusal for K or Eps alone, where far or planted
// cannot plant its cycles: a sweep skips such a grid point.
var ErrCannotPlant = errors.New("cannot plant the cycles")

// family is one entry of the catalog.
type family struct {
	arity  int    // -gen arguments
	eps    bool   // the second -gen argument is Eps, not B
	k      bool   // the graph depends on K
	seeded bool   // the generator takes a coin stream
	wire   bool   // offered by the JSON form
	least  [2]int // the smallest A and B the generator takes
	// edges bounds the edge count and the generator's loops, in float64 so
	// that no argument overflows it. From least on, every graph is connected
	// or has at most one vertex, so this bounds the vertex count too.
	edges func(s Spec) float64
	// check refuses the other arguments the generator cannot take. It runs
	// only within MaxFamilyEdges, where its arithmetic cannot overflow.
	check func(s Spec) error
	build func(s Spec, rng *xrand.RNG) (g *Graph, note string)
}

// catalog is every family, by name.
var catalog = map[string]family{
	"gnm": {arity: 2, seeded: true, wire: true, least: [2]int{1, 0},
		edges: func(s Spec) float64 { return max(float64(s.B), float64(s.A)-1) },
		check: func(s Spec) error {
			if most := s.A * (s.A - 1) / 2; s.B < s.A-1 || s.B > most {
				return fmt.Errorf("needs n-1 <= m <= n(n-1)/2 = %d", most)
			}
			return nil
		},
		build: func(s Spec, rng *xrand.RNG) (*Graph, string) { return ConnectedGNM(s.A, s.B, rng), "" }},
	// q <= n/3 cycles, q-1 connectors and a pendant path: n+q-1 edges.
	"far": {arity: 2, eps: true, k: true, seeded: true, wire: true, least: [2]int{3, 0},
		edges: func(s Spec) float64 { return float64(s.A) + math.Floor(float64(s.A)/3) },
		check: func(s Spec) error {
			if farPacking(s.A, s.K, s.Eps) == 0 {
				return fmt.Errorf("%w: it needs eps < 1/k and room for q disjoint Ck with q > eps*m", ErrCannotPlant)
			}
			return nil
		},
		build: func(s Spec, rng *xrand.RNG) (*Graph, string) {
			g, q := FarFromCkFree(s.A, s.K, s.Eps, rng)
			return g, fmt.Sprintf("planted %d edge-disjoint C%d (certified %.3f-far)", q, s.K, float64(q)/float64(g.M()))
		}},
	"tree": {arity: 1, seeded: true, wire: true, least: [2]int{1, 0},
		edges: func(s Spec) float64 { return float64(s.A) - 1 },
		build: func(s Spec, rng *xrand.RNG) (*Graph, string) { return RandomTree(s.A, rng), "" }},
	"cycle": {arity: 1, wire: true, least: [2]int{3, 0},
		edges: func(s Spec) float64 { return float64(s.A) },
		build: func(s Spec, _ *xrand.RNG) (*Graph, string) { return Cycle(s.A), "" }},
	"complete": {arity: 1, wire: true, least: [2]int{1, 0},
		edges: func(s Spec) float64 { n := float64(s.A); return n * (n - 1) / 2 },
		build: func(s Spec, _ *xrand.RNG) (*Graph, string) { return Complete(s.A), "" }},
	"path": {arity: 1,
		edges: func(s Spec) float64 { return float64(s.A) - 1 },
		build: func(s Spec, _ *xrand.RNG) (*Graph, string) { return Path(s.A), "" }},
	"wheel": {arity: 1, least: [2]int{4, 0},
		edges: func(s Spec) float64 { return 2 * (float64(s.A) - 1) },
		build: func(s Spec, _ *xrand.RNG) (*Graph, string) { return Wheel(s.A), "" }},
	"hypercube": {arity: 1,
		edges: func(s Spec) float64 { return float64(s.A) * math.Ldexp(1, s.A-1) },
		build: func(s Spec, _ *xrand.RNG) (*Graph, string) { return Hypercube(s.A), "" }},
	// A zero dimension leaves no vertex, but Grid still loops over the other.
	"grid": {arity: 2,
		edges: func(s Spec) float64 { r, c := float64(s.A), float64(s.B); return max(2*r*c-r-c, r-1, c-1) },
		build: func(s Spec, _ *xrand.RNG) (*Graph, string) { return Grid(s.A, s.B), "" }},
	"torus": {arity: 2, least: [2]int{3, 3},
		edges: func(s Spec) float64 { return 2 * float64(s.A) * float64(s.B) },
		build: func(s Spec, _ *xrand.RNG) (*Graph, string) { return Torus(s.A, s.B), "" }},
	"kbipartite": {arity: 2, least: [2]int{1, 1},
		edges: func(s Spec) float64 { return float64(s.A) * float64(s.B) },
		build: func(s Spec, _ *xrand.RNG) (*Graph, string) { return CompleteBipartite(s.A, s.B), "" }},
	"theta": {arity: 2, seeded: true, least: [2]int{1, 2},
		edges: func(s Spec) float64 { return float64(s.A) * float64(s.B) },
		build: func(s Spec, rng *xrand.RNG) (*Graph, string) { return Theta(s.A, s.B, rng), "" }},
	// A spanning tree, the planted cycle and B extra edges.
	"planted": {arity: 2, k: true, seeded: true,
		edges: func(s Spec) float64 { n := float64(s.A); return n - 1 + min(float64(s.K), n) + float64(s.B) },
		check: func(s Spec) error {
			n := s.A
			if s.K < 3 || s.K > n {
				return fmt.Errorf("%w: it needs 3 <= k <= n", ErrCannotPlant)
			}
			// At least free pairs are left, so the extra edges' sampling ends.
			if free := max(0, n*(n-1)/2-(n-1)-s.K); s.B > free {
				return fmt.Errorf("%w: it has room for at most %d extra edges", ErrCannotPlant, free)
			}
			return nil
		},
		build: func(s Spec, rng *xrand.RNG) (*Graph, string) {
			g, e := PlantedCycle(s.A, s.K, s.B, rng)
			return g, fmt.Sprintf("planted C%d through edge %v", s.K, e)
		}},
}

// readsB reports whether B is one of the family's arguments.
func (f *family) readsB() bool { return f.arity == 2 && !f.eps }

// validate checks s against its family's rules, reading its size off the
// spec, so nothing is built.
func (s Spec) validate() (family, error) {
	f, ok := catalog[s.Family]
	if !ok {
		return f, fmt.Errorf("graph: unknown graph family %q", s.Family)
	}
	var err error
	switch {
	case s.A < f.least[0] || s.B < f.least[1]:
		err = fmt.Errorf("is below the family's least arguments %v", f.least[:f.arity])
	case f.edges(s) > MaxFamilyEdges:
		err = fmt.Errorf("exceeds the limit of %d edges", MaxFamilyEdges)
	case f.check != nil:
		err = f.check(s)
	}
	if err != nil {
		return f, fmt.Errorf("graph: %s %w", s.Key(), err)
	}
	return f, nil
}

// Build validates s and builds its graph. It does not panic: the family's
// rules refuse whatever its generator would panic on (FuzzGenSpec).
func (s Spec) Build() (*Graph, error) {
	g, _, err := s.generate()
	return g, err
}

// generate is Build, with the note far and planted give on what they plant.
func (s Spec) generate() (*Graph, string, error) {
	f, err := s.validate()
	if err != nil {
		return nil, "", err
	}
	// The "graph_ge" salt decouples the graph's coins from the run's.
	g, note := f.build(s, xrand.New(xrand.Mix64(s.Seed^0x67726170685f6765)))
	return g, note, nil
}

// Key is the spec's cache key, which /stats lists and errors name. It holds
// only what the build reads, so tester runs with other parameters share one
// cached graph: gnm/n=256/m=1024/seed=7, cycle/n=12,
// far/n=120/seed=1/k=5/eps=0.05.
func (s Spec) Key() string {
	f := catalog[s.Family]
	var buf [64]byte
	b := strconv.AppendInt(append(append(buf[:0], s.Family...), "/n="...), int64(s.A), 10)
	if f.readsB() {
		b = strconv.AppendInt(append(b, "/m="...), int64(s.B), 10)
	}
	if f.seeded {
		b = strconv.AppendUint(append(b, "/seed="...), s.Seed, 10)
	}
	if f.k {
		b = strconv.AppendInt(append(b, "/k="...), int64(s.K), 10)
	}
	if f.eps {
		b = strconv.AppendFloat(append(b, "/eps="...), s.Eps, 'g', -1, 64)
	}
	return string(b)
}

// FamilySpec resolves and validates the JSON form {family, n, m} at a
// run's k, ε and seed. It offers gnm, far, tree, cycle and complete; m is
// gnm's edge count, 4n by default. The spec comes back with the error.
func FamilySpec(name string, n, m, k int, eps float64, seed uint64) (Spec, error) {
	f, ok := catalog[name]
	if !ok || !f.wire {
		return Spec{Family: name}, fmt.Errorf("graph: unknown graph family %q", name)
	}
	s := Spec{Family: name, A: n, K: k, Eps: eps, Seed: seed}
	if f.readsB() {
		s.B = cmp.Or(m, 4*n)
	}
	_, err := s.validate()
	return s, err
}

// BuildGen builds the graph a -gen spec names: "name:a,b", such as
// cycle:12, gnm:200,800, far:120,0.05 or planted:30,3. Every argument is an
// integer except far's ε. For far and planted, note says what was planted.
func BuildGen(spec string, k int, seed uint64) (g *Graph, note string, err error) {
	s, err := parseGen(spec, k, seed)
	if err != nil {
		return nil, "", err
	}
	return s.generate()
}

// parseGen reads a -gen string into a Spec without validating it.
func parseGen(spec string, k int, seed uint64) (Spec, error) {
	name, argStr, _ := strings.Cut(spec, ":")
	f, ok := catalog[name]
	parts := strings.Split(argStr, ",")
	switch {
	case !ok:
		return Spec{}, fmt.Errorf("graph: unknown graph family %q", name)
	case len(parts) != f.arity:
		return Spec{}, fmt.Errorf("graph: generator %q needs %d arguments, got %d", name, f.arity, len(parts))
	}
	s := Spec{Family: name, K: k, Seed: seed}
	ints := [2]*int{&s.A, &s.B}
	for i, part := range parts {
		var err error
		if i == 1 && f.eps {
			s.Eps, err = strconv.ParseFloat(part, 64)
		} else {
			*ints[i], err = strconv.Atoi(part)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("graph: generator %q: bad argument %d, %q", name, i+1, part)
		}
	}
	return s, nil
}
