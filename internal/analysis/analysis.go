// Package analysis is the home of ckvet, the repo's domain-specific
// static-analyzer suite. The codebase's hardest-won properties — 0-alloc
// steady-state engine runs, context cancellation reaching every
// round barrier, every metric series registered up front with constant
// labels, no blocking call while a lock is held — are runtime-tested
// today (TestRunAllocFree, cancel_test.go, ...); the analyzers here
// enforce the same invariants at compile time, the way the paper's
// distributed testers certify a global property through cheap local
// checks: each analyzer looks at one package at a time, and a clean run
// over ./... certifies the global invariant.
//
// The suite is built directly on go/ast and go/types — NOT on
// golang.org/x/tools/go/analysis — because the module is intentionally
// dependency-free. The shapes mirror x/tools (Analyzer, Pass, Diagnostic,
// a testdata-driven golden harness in analysistest.go) so migrating onto
// the upstream framework later is mechanical.
//
// Analyzers are configured by source directives:
//
//	//ckvet:allocfree          — this function (or func literal) must not
//	                             contain allocation-inducing constructs;
//	                             the obligation propagates to same-package
//	                             callees (see hotalloc.go)
//	//ckvet:allocs <reason>    — stops that propagation: the function is a
//	                             cold path (error assembly, recovery) that
//	                             is allowed to allocate
//	//ckvet:ignore <reason>    — suppresses every finding reported on the
//	                             same source line
//
// Non-test files only: the invariants guard production hot paths, and
// tests violate them on purpose (alloc-counting tests, == comparisons on
// sentinel errors, deliberately leaked contexts).
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
	return []*Analyzer{HotAlloc, CtxFlow, MetricReg, LockHold, Directives}
}
