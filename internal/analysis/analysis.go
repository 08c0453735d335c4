// Package analysis is the home of ckvet, the repo's domain-specific
// static-analyzer suite. It keeps the one invariant that no deterministic
// test can hold: lockhold reports a blocking call (a channel operation, a
// sleep, I/O) made while a mutex is held. Such a call stalls every waiter
// on the lock only when the blocking side is slow, so a test run on a
// quiet machine passes with the call in place. Exact tests hold the other
// invariants (zero-allocation warm paths, damaged traffic included;
// cancellation reaching every round barrier; every metric series
// registered); README "Static analysis" maps each to its tests.
//
// The suite is built directly on go/ast and go/types — NOT on
// golang.org/x/tools/go/analysis — because the module is intentionally
// dependency-free. The shapes mirror x/tools (Analyzer, Pass, Diagnostic,
// a testdata-driven golden harness in analysistest.go) so migrating onto
// the upstream framework later is mechanical.
//
// One source directive configures the suite:
//
//	//ckvet:ignore <reason>    — suppresses every finding reported on the
//	                             same source line
//
// Non-test files only: the invariant guards the serving path, and a test
// may block under a lock of its own.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check over a loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package through one analyzer and collects its
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Fset returns the package's file set.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed non-test files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's type-check results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// TypesPkg returns the package's *types.Package.
func (p *Pass) TypesPkg() *types.Package { return p.Pkg.Types }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, located and attributed.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics — findings on lines carrying a //ckvet:ignore directive are
// dropped — sorted by file, line, column, analyzer. The Directives
// meta-analyzer is exempt from suppression: it audits the ignore
// mechanism itself, so a reasonless ignore must not hide its own finding.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		ignored := ignoredLines(pkg)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			for _, d := range pass.diags {
				if a != Directives && ignored[lineKey{d.Pos.Filename, d.Pos.Line}] {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// All returns the full analyzer suite in catalog order. Directives rides
// along so a typoed or unjustified //ckvet: comment is itself a finding.
func All() []*Analyzer {
	return []*Analyzer{LockHold, Directives}
}
