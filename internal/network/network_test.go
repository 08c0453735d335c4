package network

import "testing"

// TestSameProgram exercises the node-cache guard, including the
// non-comparable program type that a bare == would panic on. The
// behavioral tests live in the external network_test package.
func TestSameProgram(t *testing.T) {
	a := &countProgram{}
	b := &countProgram{}
	if !sameProgram(a, a) {
		t.Fatal("identical pointer not recognized")
	}
	if sameProgram(a, b) {
		t.Fatal("distinct values must not be conflated")
	}
	if sameProgram(nil, nil) || sameProgram(a, nil) {
		t.Fatal("nil programs are never the same")
	}
	f1, f2 := funcProgram{rounds: func(n, m int) int { return 1 }}, funcProgram{rounds: func(n, m int) int { return 1 }}
	if sameProgram(f1, f2) || sameProgram(f1, f1) {
		t.Fatal("non-comparable program types must compare unequal, not panic")
	}
}

// countProgram is non-empty so distinct allocations have distinct
// addresses (zero-size allocations may share one).
type countProgram struct{ rounds int }

func (p *countProgram) Rounds(n, m int) int   { return p.rounds }
func (p *countProgram) NewNode(NodeInfo) Node { return nil }

// funcProgram is a deliberately non-comparable Program.
type funcProgram struct {
	rounds func(n, m int) int
}

func (p funcProgram) Rounds(n, m int) int   { return p.rounds(n, m) }
func (p funcProgram) NewNode(NodeInfo) Node { return nil }
