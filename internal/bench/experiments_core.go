package bench

import (
	"fmt"
	"math"

	"cycledetect/internal/central"
	"cycledetect/internal/combin"
	"cycledetect/internal/congest"
	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/ptest"
	"cycledetect/internal/stats"
	"cycledetect/internal/xrand"
)

// run executes a core program on g and returns (decision, stats) through a
// one-shot Network. Repetition-heavy experiments (E3, E4, E11) instead
// build one Network per graph (via c.network) and call runOn per trial,
// amortizing topology, engine, and node construction across all trials.
func (c Config) run(g *graph.Graph, p congest.Program, seed uint64) (core.Decision, congest.Stats) {
	nw := c.network(g)
	defer nw.Close()
	return runOn(nw, p, seed)
}

// network builds a reusable Instance for g honoring the config's worker cap.
func (c Config) network(g *graph.Graph) *network.Instance {
	nw, err := network.New(g, network.Options{Workers: c.Workers})
	if err != nil {
		panic(fmt.Sprintf("bench: network build failed: %v", err))
	}
	return nw
}

// runOn executes p on a reused Instance. The returned Stats aliases the
// Instance's per-round slices, which the next run on the same Instance
// overwrites; experiments that reuse an Instance read only scalar Stats
// fields, and one-shot callers (run) retire the Instance immediately.
func runOn(nw *network.Instance, p congest.Program, seed uint64) (core.Decision, congest.Stats) {
	res, err := nw.RunProgram(p, seed)
	if err != nil {
		panic(fmt.Sprintf("bench: simulation failed: %v", err))
	}
	return core.Summarize(res.Outputs, res.IDs), res.Stats
}

// RunE1 reproduces Theorem 1's round complexity: rounds = ⌈(e²/ε)ln3⌉ ·
// (1+⌊k/2⌋), linear in 1/ε and independent of n.
func RunE1(cfg Config) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Round complexity vs k, ε, n (Theorem 1)",
		Claim:  "the tester runs in O(1/ε) CONGEST rounds, independent of n",
		Header: []string{"k", "eps", "n", "m", "reps", "rounds", "rounds*eps"},
	}
	rng := xrand.New(cfg.Seed)
	ns := []int{64, 512}
	if cfg.Quick {
		ns = []int{32, 128}
	}
	for _, k := range []int{3, 5, 8} {
		for _, eps := range []float64{0.4, 0.2, 0.1, 0.05} {
			for _, n := range ns {
				g := graph.ConnectedGNM(n, 3*n, rng)
				prog := &core.Tester{K: k, Eps: eps}
				_, st := cfg.run(g, prog, cfg.Seed)
				t.AddRow(
					fmt.Sprint(k), fmt.Sprintf("%.2f", eps),
					fmt.Sprint(n), fmt.Sprint(g.M()),
					fmt.Sprint(prog.Repetitions()), fmt.Sprint(st.Rounds),
					fmt.Sprintf("%.1f", float64(st.Rounds)*eps),
				)
				if st.Rounds != prog.Repetitions()*(1+k/2) {
					t.Violations++
				}
			}
		}
	}
	t.Note("rounds*eps is flat in eps for fixed k (O(1/ε)); rows with equal (k,eps) and different n have identical round counts (n-independence)")
	return t
}

// RunE2 reproduces Lemma 3: at Phase-2 round t, every message carries at
// most (k−t+1)^(t−1) sequences, on traffic-maximizing topologies.
func RunE2(cfg Config) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "Sequences per message vs Lemma 3 bound",
		Claim:  "messages at round t carry ≤ (k−t+1)^(t−1) sequences",
		Header: []string{"graph", "k", "t", "max seqs", "bound", "ok"},
	}
	rng := xrand.New(cfg.Seed)
	gs := []struct {
		name string
		g    *graph.Graph
	}{
		{"K12,12", graph.CompleteBipartite(12, 12)},
		{"K10", graph.Complete(10)},
		{"theta16x3", graph.Theta(16, 3, rng)},
		{"wheel16", graph.Wheel(16)},
		{"gnm100", graph.ConnectedGNM(100, 400, rng)},
	}
	ks := []int{4, 5, 6, 7, 8}
	if cfg.Quick {
		ks = []int{5, 6}
	}
	for _, gc := range gs {
		for _, k := range ks {
			e := gc.g.Edges()[0]
			prog := &core.EdgeDetector{K: k, U: int64(e.U), V: int64(e.V)}
			dec, _ := cfg.run(gc.g, prog, cfg.Seed)
			for tr, got := range dec.MaxSeqsPerRound {
				bound := combin.PaperMessageBound(k, tr+1)
				ok := uint64(got) <= bound
				if !ok {
					t.Violations++
				}
				t.AddRow(gc.name, fmt.Sprint(k), fmt.Sprint(tr+1),
					fmt.Sprint(got), fmt.Sprint(bound), fmt.Sprint(ok))
			}
		}
	}
	return t
}

// RunE3 reproduces the 1-sided-error guarantee: zero rejects over Ck-free
// families and seeds.
func RunE3(cfg Config) *Table {
	t := &Table{
		ID:     "E3",
		Title:  "One-sided error on Ck-free families",
		Claim:  "if G is Ck-free, every node accepts with probability 1",
		Header: []string{"family", "k", "runs", "false rejects"},
	}
	rng := xrand.New(cfg.Seed)
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"random tree n=60", graph.RandomTree(60, rng)},
		{"grid 6x6", graph.Grid(6, 6)},
		{"hypercube Q5", graph.Hypercube(5)},
		{"C15", graph.Cycle(15)},
		{"K6", graph.Complete(6)},
		{"behrend s=8", graph.BehrendLike(8, rng)},
		{"barbell 5,4", graph.Barbell(5, 4)},
	}
	seeds := cfg.samples(20, 4)
	for _, f := range families {
		// One reusable Network per family, shared by every (k, seed) run.
		nw := cfg.network(f.g)
		for k := 3; k <= 8; k++ {
			if central.HasCk(f.g, k) {
				continue // only Ck-free combinations belong in this table
			}
			prog := &core.Tester{K: k, Reps: 4}
			rejects := 0
			for s := 0; s < seeds; s++ {
				dec, _ := runOn(nw, prog, cfg.Seed+uint64(1000*s))
				if dec.Reject {
					rejects++
				}
			}
			if rejects > 0 {
				t.Violations++
			}
			t.AddRow(f.name, fmt.Sprint(k), fmt.Sprint(seeds), fmt.Sprint(rejects))
		}
		nw.Close()
	}
	return t
}

// RunE4 reproduces the detection guarantee on ε-far instances: the amplified
// tester rejects with probability ≥ 2/3, and a single repetition succeeds
// with probability ≥ ε/e² (Lemmas 4+5).
func RunE4(cfg Config) *Table {
	t := &Table{
		ID:     "E4",
		Title:  "Detection probability on ε-far instances",
		Claim:  "amplified: P[reject] ≥ 2/3; single repetition: P ≥ ε/e²",
		Header: []string{"k", "eps", "mode", "trials", "rejects", "rate", "95% CI", "required"},
	}
	rng := xrand.New(cfg.Seed)
	trialsFull := cfg.samples(60, 10)
	trialsRep := cfg.samples(300, 30)
	for _, k := range []int{3, 5, 6} {
		eps := 0.08
		g, _ := graph.FarFromCkFree(60, k, eps, rng)
		// Both trial loops re-run the tester on the same graph; one reusable
		// Network (and one Program value per loop, so the cached per-node
		// state is re-bound rather than rebuilt) amortizes all setup.
		nw := cfg.network(g)
		// Amplified tester.
		ampProg := &core.Tester{K: k, Eps: eps}
		rejects := 0
		for s := 0; s < trialsFull; s++ {
			dec, _ := runOn(nw, ampProg, cfg.Seed+uint64(s)*7919)
			if dec.Reject {
				rejects++
			}
		}
		lo, hi := stats.WilsonCI(rejects, trialsFull)
		rate := float64(rejects) / float64(trialsFull)
		if rate < 2.0/3.0 {
			t.Violations++
		}
		t.AddRow(fmt.Sprint(k), fmt.Sprintf("%.2f", eps), "amplified",
			fmt.Sprint(trialsFull), fmt.Sprint(rejects), fmt.Sprintf("%.3f", rate),
			fmt.Sprintf("[%.3f,%.3f]", lo, hi), ">=0.667")
		// Single repetition.
		repProg := &core.Tester{K: k, Reps: 1}
		rejects = 0
		for s := 0; s < trialsRep; s++ {
			dec, _ := runOn(nw, repProg, cfg.Seed+uint64(s)*104729)
			if dec.Reject {
				rejects++
			}
		}
		nw.Close()
		lo, hi = stats.WilsonCI(rejects, trialsRep)
		rate = float64(rejects) / float64(trialsRep)
		bound := ptest.RepSuccessLowerBound(eps)
		if hi < bound {
			t.Violations++
		}
		t.AddRow(fmt.Sprint(k), fmt.Sprintf("%.2f", eps), "single-rep",
			fmt.Sprint(trialsRep), fmt.Sprint(rejects), fmt.Sprintf("%.3f", rate),
			fmt.Sprintf("[%.3f,%.3f]", lo, hi), fmt.Sprintf(">=%.4f", bound))
	}
	t.Note("single-repetition rates sit far above the ε/e² lower bound because the bound is loose (it charges the full birthday collision risk and assumes only εm cycle edges)")
	return t
}

// RunE5 reproduces Lemma 5: the probability that the minimum rank is unique
// is at least 1/e² with ranks from [1, m²], and even higher with our
// [1, n⁴] range.
func RunE5(cfg Config) *Table {
	t := &Table{
		ID:     "E5",
		Title:  "Unique-minimum-rank probability (Lemma 5)",
		Claim:  "P[unique minimum rank] ≥ 1/e² ≈ 0.135",
		Header: []string{"m", "range", "trials", "P[all distinct]", "P[min unique]", "bound"},
	}
	rng := xrand.New(cfg.Seed)
	trials := cfg.samples(4000, 300)
	for _, m := range []int{10, 100, 1000} {
		for _, mode := range []string{"m^2 (paper)", "n^4 (ours)"} {
			var rangeMax uint64
			if mode == "m^2 (paper)" {
				rangeMax = uint64(m) * uint64(m)
			} else {
				// Sparse-ish graph assumption n ≈ m/2 gives the smallest
				// (most adversarial) n⁴ range for a connected graph.
				n := uint64(m/2 + 1)
				rangeMax = n * n * n * n
			}
			distinct, minUnique := 0, 0
			for tr := 0; tr < trials; tr++ {
				seen := make(map[uint64]int, m)
				var minRank uint64 = math.MaxUint64
				for i := 0; i < m; i++ {
					r := rng.Rank(rangeMax)
					seen[r]++
					if r < minRank {
						minRank = r
					}
				}
				if len(seen) == m {
					distinct++
				}
				if seen[minRank] == 1 {
					minUnique++
				}
			}
			pd := float64(distinct) / float64(trials)
			pu := float64(minUnique) / float64(trials)
			bound := 1.0 / (math.E * math.E)
			if pu < bound {
				t.Violations++
			}
			t.AddRow(fmt.Sprint(m), mode, fmt.Sprint(trials),
				fmt.Sprintf("%.3f", pd), fmt.Sprintf("%.3f", pu), fmt.Sprintf(">=%.3f", bound))
		}
	}
	t.Note("the paper's bound is on P[all ranks distinct], which implies a unique minimum; both exceed 1/e² comfortably, and the n⁴ range makes collisions negligible")
	return t
}

// RunE6 reproduces Lemma 4: a graph ε-far from Ck-free contains ≥ εm/k
// edge-disjoint k-cycles; the greedy packer must find at least that many on
// certified-far instances.
func RunE6(cfg Config) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "Edge-disjoint cycle packing (Lemma 4)",
		Claim:  "ε-far from Ck-free ⇒ ≥ εm/k edge-disjoint k-cycles",
		Header: []string{"k", "eps", "n", "m", "packed q", "εm/k", "ok"},
	}
	rng := xrand.New(cfg.Seed)
	n := 120
	if cfg.Quick {
		n = 48
	}
	for _, k := range []int{3, 4, 5, 6, 7} {
		for _, eps := range []float64{0.02, 0.05, 0.1} {
			if eps >= 1.0/float64(k) {
				continue
			}
			g, _ := graph.FarFromCkFree(n, k, eps, rng)
			packed := central.GreedyCyclePacking(g, k)
			need := ptest.PackingLowerBound(eps, g.M(), k)
			ok := float64(len(packed)) >= need
			if !ok {
				t.Violations++
			}
			t.AddRow(fmt.Sprint(k), fmt.Sprintf("%.2f", eps), fmt.Sprint(g.N()),
				fmt.Sprint(g.M()), fmt.Sprint(len(packed)), fmt.Sprintf("%.1f", need), fmt.Sprint(ok))
		}
	}
	return t
}
