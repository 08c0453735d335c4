package analysis

import (
	"strings"
	"testing"
)

func TestLockHold(t *testing.T) { RunTest(t, "lockhold", LockHold) }

// TestDirectives asserts the meta-analyzer's findings directly: its
// diagnostics land on the //ckvet: comments themselves, where a `// want`
// marker cannot also live. The verbs of the retired hotalloc analyzer
// (allocfree, allocs) are unknown verbs like any typo.
func TestDirectives(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/ckvetdirective")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, []*Analyzer{Directives})
	wants := []string{
		`unknown ckvet directive "allocfree"`,
		`unknown ckvet directive "allocs"`,
		`unknown ckvet directive "ignroe"`,
		`unknown ckvet directive "ctxfield"`,
		`//ckvet:ignore needs a reason`,
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wants), diags)
	}
	for i, want := range wants {
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("diagnostic %d = %q, want containing %q", i, diags[i], want)
		}
	}
}
