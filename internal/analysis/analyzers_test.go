package analysis

import (
	"strings"
	"testing"
)

func TestHotAlloc(t *testing.T)  { RunTest(t, "hotalloc", HotAlloc) }
func TestCtxFlow(t *testing.T)   { RunTest(t, "ctxflow", CtxFlow) }
func TestMetricReg(t *testing.T) { RunTest(t, "metricreg", MetricReg) }
func TestLockHold(t *testing.T)  { RunTest(t, "lockhold", LockHold) }

// TestDirectives asserts the meta-analyzer's findings directly: its
// diagnostics land on the //ckvet: comments themselves, where a `// want`
// marker cannot also live.
func TestDirectives(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/ckvetdirective")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, []*Analyzer{Directives})
	wants := []string{
		`//ckvet:allocs needs a reason`,
		`unknown ckvet directive "allocsfree"`,
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
