package graph

import (
	"strings"
	"testing"

	"cycledetect/internal/xrand"
)

func TestTextRoundTrip(t *testing.T) {
	rng := xrand.New(20)
	for trial := 0; trial < 10; trial++ {
		g := GNM(15+rng.Intn(10), 20+rng.Intn(40), rng)
		var sb strings.Builder
		if err := WriteText(&sb, g); err != nil {
			t.Fatal(err)
		}
		h, err := ReadText(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(g, h) {
			t.Fatalf("round trip mismatch:\n%s", sb.String())
		}
	}
}

func TestReadTextComments(t *testing.T) {
	in := "# header\n\nn 4\n0 1\n# mid comment\n2 3\n"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
}

func TestReadTextErrors(t *testing.T) {
	bad := []string{
		"",           // no header
		"0 1\n",      // edge before header
		"n x\n",      // bad count
		"n 3\nn 3\n", // duplicate header
		"n 3\n0\n",   // malformed edge
		"n 3\n0 3\n", // out of range
		"n 3\n1 1\n", // self loop
		"n 3\na b\n", // non-numeric
	}
	for _, in := range bad {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestFingerprintEquality(t *testing.T) {
	a := Cycle(6)
	b := Cycle(6)
	c := Path(6)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical graphs, different fingerprints")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different graphs, same fingerprint")
	}
	if Equal(a, c) {
		t.Fatal("Equal confused C6 and P6")
	}
}
