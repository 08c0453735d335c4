package cycledetect

import (
	"fmt"

	"cycledetect/internal/core"
)

// CycleProfile is the per-k outcome of ProfileCycles.
type CycleProfile struct {
	K      int
	Result *Result
}

// ProfileCycles runs the tester for every k in [3, kmax] and reports which
// cycle lengths were found; kmax, like Options.K, is at most 9. It is the
// natural "what short cycles does my network contain?" probe: a rejected k
// exhibits a real Ck (1-sidedness), while an accepted k means the graph is
// Ck-free OR not Epsilon-far from Ck-free — acceptance is evidence of
// scarcity, not a certificate of absence.
//
// The runs are independent; total rounds are the sum over k, still
// independent of the network size. Internally the probe compiles the
// network ONCE and reuses it for every k (this is the hot-path shape the
// reusable-network layer exists for: per-k results are byte-identical to
// per-k Test calls, without re-paying topology and engine construction
// kmax−2 times).
func ProfileCycles(g *Graph, kmax int, opts Options) ([]CycleProfile, error) {
	// kmax is the largest k run, so its tester stands for every k.
	if err := validate(g, &core.Tester{K: kmax, Eps: opts.Epsilon, Reps: opts.Reps}); err != nil {
		return nil, err
	}
	nw, err := opts.instance(g)
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	profiles := make([]CycleProfile, 0, kmax-2)
	for k := 3; k <= kmax; k++ {
		prog := &core.Tester{K: k, Eps: opts.Epsilon, Reps: opts.Reps}
		// Derive per-k seeds so runs are independent but reproducible (the
		// same derivation per-k Test calls used before network reuse).
		res, err := nw.RunProgram(prog, opts.Seed*1000003+uint64(k))
		if err != nil {
			return nil, fmt.Errorf("cycledetect: k=%d: %w", k, err)
		}
		out := summarize(res)
		out.Repetitions = prog.Repetitions()
		profiles = append(profiles, CycleProfile{K: k, Result: out})
	}
	return profiles, nil
}

// GirthUpperBound runs ProfileCycles (so kmax is at most 9) and returns the
// smallest k whose tester rejected — a certified upper bound on the girth
// (the witness cycle is real). The boolean is false if no cycle of length
// ≤ kmax was found, which does NOT certify girth > kmax (the tester may
// accept non-far instances).
func GirthUpperBound(g *Graph, kmax int, opts Options) (int, bool, error) {
	profiles, err := ProfileCycles(g, kmax, opts)
	if err != nil {
		return 0, false, err
	}
	for _, p := range profiles {
		if p.Result.Rejected {
			return p.K, true, nil
		}
	}
	return 0, false, nil
}
