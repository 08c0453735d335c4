package cycledetect

import (
	"testing"
)

func ring(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n); err != nil {
			panic(err)
		}
	}
	return g
}

func TestPublicAPITestRejectsCycle(t *testing.T) {
	g := ring(6)
	res, err := Test(g, Options{K: 6, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected {
		t.Fatal("C6 not rejected")
	}
	if len(res.Witness) != 6 {
		t.Fatalf("witness %v", res.Witness)
	}
	if res.Repetitions <= 0 || res.Rounds != res.Repetitions*(1+3) {
		t.Fatalf("rounds=%d reps=%d", res.Rounds, res.Repetitions)
	}
}

func TestPublicAPIOneSided(t *testing.T) {
	// A path has no cycles at all; must always accept.
	g := NewGraph(10)
	for i := 0; i < 9; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint64(0); seed < 10; seed++ {
		for k := 3; k <= 6; k++ {
			res, err := Test(g, Options{K: k, Epsilon: 0.2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rejected {
				t.Fatalf("path rejected for k=%d seed=%d", k, seed)
			}
		}
	}
}

func TestPublicAPIDetectThroughEdge(t *testing.T) {
	g := ring(7)
	res, err := DetectThroughEdge(g, 0, 1, Options{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected {
		t.Fatal("edge on C7 not detected")
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds=%d want ⌊7/2⌋=3", res.Rounds)
	}
	// An edge not on any C5 (the ring is C7): must accept.
	res, err = DetectThroughEdge(g, 0, 1, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected {
		t.Fatal("false detection of C5 on a C7 ring")
	}
}

func TestPublicAPIValidation(t *testing.T) {
	g := ring(5)
	cases := map[string]func() error{
		"nil graph":   func() error { _, err := Test(nil, Options{K: 3, Epsilon: 0.1}); return err },
		"empty graph": func() error { _, err := Test(NewGraph(0), Options{K: 3, Epsilon: 0.1}); return err },
		"k too small": func() error { _, err := Test(g, Options{K: 2, Epsilon: 0.1}); return err },
		"eps zero":    func() error { _, err := Test(g, Options{K: 3}); return err },
		"eps too big": func() error { _, err := Test(g, Options{K: 3, Epsilon: 1}); return err },
		"neg reps":    func() error { _, err := Test(g, Options{K: 3, Epsilon: 0.1, Reps: -1}); return err },
		"same endpoint": func() error {
			_, err := DetectThroughEdge(g, 3, 3, Options{K: 3})
			return err
		},
	}
	for name, fn := range cases {
		if fn() == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// DetectThroughEdge needs no epsilon.
	if _, err := DetectThroughEdge(g, 0, 1, Options{K: 5}); err != nil {
		t.Fatalf("detector should not need epsilon: %v", err)
	}
}

func TestGraphValidation(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatal("duplicate should be a no-op, not an error")
	}
	if g.M() != 1 || g.N() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
}

func TestRequiredRepetitions(t *testing.T) {
	r1, err := RequiredRepetitions(0.2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RequiredRepetitions(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r2 <= r1 {
		t.Fatal("repetitions must grow as epsilon shrinks")
	}
	if _, err := RequiredRepetitions(0); err == nil {
		t.Fatal("eps=0 accepted")
	}
}

func TestCustomIDs(t *testing.T) {
	g := ring(5)
	res, err := Test(g, Options{K: 5, Epsilon: 0.2, IDs: []int64{10, 20, 30, 40, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected {
		t.Fatal("C5 with custom IDs not rejected")
	}
	for _, id := range res.Witness {
		if id%10 != 0 || id < 10 || id > 50 {
			t.Fatalf("witness %v not in custom ID space", res.Witness)
		}
	}
	if _, err := Test(g, Options{K: 5, Epsilon: 0.2, IDs: []int64{1, 1, 2, 3, 4}}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestBandwidthOption(t *testing.T) {
	g := ring(6)
	// An absurdly small budget must trip enforcement.
	if _, err := Test(g, Options{K: 6, Epsilon: 0.1, BandwidthBits: 8}); err == nil {
		t.Fatal("8-bit budget not enforced")
	}
	// A generous budget passes.
	if _, err := Test(g, Options{K: 6, Epsilon: 0.1, BandwidthBits: 1 << 20}); err != nil {
		t.Fatal(err)
	}
}
