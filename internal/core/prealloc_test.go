package core

import (
	"runtime"
	"testing"

	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// arenaDemand drives a full Tester run through the lockstep harness (no
// engine, so the per-node checkState stays inspectable) and records the
// high-water arena demand of every node relative to what prealloc reserved.
type arenaDemand struct {
	maxRecvSpansOver float64 // max over nodes of used/preallocated recv spans
	maxSentSpansOver float64
	maxRecvIDsOver   float64
	maxSentIDsOver   float64
	maxRecvSpans     int
	maxDeg           int
}

func measureArenaDemand(t *testing.T, g *graph.Graph, k, reps int, seed uint64) arenaDemand {
	t.Helper()
	prog := &Tester{K: k, Reps: reps}
	n := g.N()
	ls := newLockstep(g, prog, seed)

	var d arenaDemand
	halfK := k / 2
	observe := func() {
		for v := 0; v < n; v++ {
			tn := ls.nodes[v].(*testerNode)
			deg := g.Degree(v)
			if deg > d.maxDeg {
				d.maxDeg = deg
			}
			// The mirrors of prealloc's reservations.
			recvSpansCap := preallocRecvSpans(k, deg)
			sentSpansCap := preallocSentSpans(k)
			recvIDsCap := recvSpansCap * halfK
			sentIDsCap := sentSpansCap * (halfK + 1)
			track := func(used, reserved int, over *float64) {
				if reserved == 0 {
					return
				}
				if r := float64(used) / float64(reserved); r > *over {
					*over = r
				}
			}
			track(len(tn.cs.recv.Spans), recvSpansCap, &d.maxRecvSpansOver)
			track(len(tn.cs.sent.Spans), sentSpansCap, &d.maxSentSpansOver)
			track(len(tn.cs.recv.IDs), recvIDsCap, &d.maxRecvIDsOver)
			track(len(tn.cs.sent.IDs), sentIDsCap, &d.maxSentIDsOver)
			if len(tn.cs.recv.Spans) > d.maxRecvSpans {
				d.maxRecvSpans = len(tn.cs.recv.Spans)
			}
		}
	}

	rounds := prog.Rounds(n, g.M())
	for round := 1; round <= rounds; round++ {
		ls.round(round, observe) // sent arenas peak right after Send
		observe()                // recv arenas peak right after Receive
	}
	return d
}

// TestPreallocCoversSweepDensities re-measures checkState.prealloc against
// the degree distributions the sweep scheduler actually generates — G(n, m)
// well beyond the m = 4n the sizes were originally tuned on — plus the
// adversarially dense K_{d,d}. Within the documented coverage (G(n, ≤4n)
// for k ≤ 9, G(n, 8n) for k ≤ 7) the reservation must cover the measured
// high-water demand (envelope 1: arenas never grow after construction); the
// densest k=9 sweeps accept a bounded one-time warm-up growth instead of an
// ~80 KB/node reservation (see prealloc's sizing comment). If an envelope
// breaks after a pruning change, re-run with -v and update both prealloc
// and its table.
func TestPreallocCoversSweepDensities(t *testing.T) {
	rng := xrand.New(1)
	cases := []struct {
		name     string
		g        *graph.Graph
		k        int
		envelope float64 // allowed used/reserved ratio
	}{
		{"gnm_4n_k5", graph.ConnectedGNM(96, 4*96, rng), 5, 1},
		{"gnm_4n_k9", graph.ConnectedGNM(96, 4*96, rng), 9, 1},
		{"gnm_8n_k7", graph.ConnectedGNM(72, 8*72, rng), 7, 1},
		{"Kdd_d12_k8", graph.CompleteBipartite(12, 12), 8, 1},
		// Beyond the covered range prealloc deliberately under-reserves;
		// the envelope bounds the one-time warm-up growth. k stops at 9:
		// the hitting-set pruner is exponential-in-q worst case and k=11
		// on dense graphs is not in the supported experiment range yet
		// (see the ROADMAP's combin.Representatives note).
		{"gnm_8n_k9", graph.ConnectedGNM(72, 8*72, rng), 9, 2.5},
		{"gnm_16n_k9", graph.ConnectedGNM(64, 16*64, rng), 9, 2.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := measureArenaDemand(t, tc.g, tc.k, 2, 17)
			t.Logf("maxdeg=%d recvSpans used/cap=%.2f (max %d) sentSpans=%.2f recvIDs=%.2f sentIDs=%.2f",
				d.maxDeg, d.maxRecvSpansOver, d.maxRecvSpans,
				d.maxSentSpansOver, d.maxRecvIDsOver, d.maxSentIDsOver)
			for name, over := range map[string]float64{
				"recv spans": d.maxRecvSpansOver,
				"sent spans": d.maxSentSpansOver,
				"recv IDs":   d.maxRecvIDsOver,
				"sent IDs":   d.maxSentIDsOver,
			} {
				if over > tc.envelope {
					t.Errorf("%s demand exceeds prealloc by %.2fx (envelope %.1fx)", name, over, tc.envelope)
				}
			}
		})
	}
}

// TestDetectorFootprint pins the detector's demand-grown arenas on the
// serving layer's cache-miss shape: a fresh k=7 instance plus one run on a
// connected G(2048, 8192) must allocate under 5 MB in total. Reserving the
// Tester's worst-case arenas on every node cost ~18 MB here, although only
// nodes within ⌊k/2⌋ hops of the candidate edge ever hold a sequence. Once
// the first run has grown the arenas, a reused instance must run the same
// detector allocation-free.
func TestDetectorFootprint(t *testing.T) {
	g := graph.ConnectedGNM(2048, 8192, xrand.New(13))
	c, err := network.Compile(g, network.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[g.M()/2]
	prog := &EdgeDetector{K: 7, U: ID(e.U), V: ID(e.V)}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	inst, err := c.NewInstance(network.InstanceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.RunProgram(prog, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 5 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("fresh instance + one run: %.2f MB", float64(got)/(1<<20))
	if got >= limit {
		t.Errorf("fresh k=7 detector instance + one run allocated %.1f MB, want < %.1f MB",
			float64(got)/(1<<20), float64(limit)/(1<<20))
	}

	allocs := testing.AllocsPerRun(10, func() {
		if _, err := inst.RunProgram(prog, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("reused detector instance allocates %.1f times per run; want 0", allocs)
	}
}
