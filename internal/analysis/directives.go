package analysis

// ckvet source directives. A directive is a `//ckvet:<verb>` comment —
// no space after the slashes, like //go: directives — either in the doc
// comment of the declaration it governs or on the same line as the code
// it suppresses:
//
//	//ckvet:allocfree
//	func (h *Histogram) Observe(v int64) { ... }
//
//	nw.errs[v] = nodeErr{err: &ErrBandwidth{...}} //ckvet:ignore error path
//
// ignore directives are REQUIRED to carry a reason; an unexplained
// suppression defeats the point of having the invariant checked.

import (
	"go/ast"
	"go/token"
	"strings"
)

const directivePrefix = "//ckvet:"

// directive is one parsed //ckvet: comment.
type directive struct {
	verb   string // "allocfree", "allocs", "ignore"
	reason string
	pos    token.Pos
}

// parseDirective parses a single comment, returning ok=false for
// non-directive comments.
func parseDirective(c *ast.Comment) (directive, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	verb, reason, _ := strings.Cut(rest, " ")
	return directive{verb: verb, reason: strings.TrimSpace(reason), pos: c.Pos()}, true
}

// commentDirectives parses every directive in a comment group.
func commentDirectives(cg *ast.CommentGroup) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		if d, ok := parseDirective(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// hasDirective reports whether cg carries //ckvet:<verb>.
func hasDirective(cg *ast.CommentGroup, verb string) bool {
	for _, d := range commentDirectives(cg) {
		if d.verb == verb {
			return true
		}
	}
	return false
}

// lineKey identifies one source line for suppression matching.
type lineKey struct {
	file string
	line int
}

// ignoredLines collects every line carrying //ckvet:ignore. Findings
// reported on those lines are dropped by Run; the Directives meta-analyzer
// separately enforces that every ignore carries a reason.
func ignoredLines(pkg *Package) map[lineKey]bool {
	out := map[lineKey]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok || d.verb != "ignore" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out[lineKey{pos.Filename, pos.Line}] = true
			}
		}
	}
	return out
}

// Directives is a meta-analyzer auditing the directives themselves:
// unknown verbs (a typo like //ckvet:allocsfree silently disabling a
// check is exactly the failure mode this suite exists to prevent) and
// reasonless ignore/allocs directives are findings.
var Directives = &Analyzer{
	Name: "ckvetdirective",
	Doc:  "check that //ckvet: directives are well-formed and justified",
	Run: func(pass *Pass) {
		for _, f := range pass.Files() {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, ok := parseDirective(c)
					if !ok {
						continue
					}
					switch d.verb {
					case "allocfree":
						// No reason needed: the directive is the contract.
					case "ignore", "allocs":
						if d.reason == "" {
							pass.Reportf(d.pos, "//ckvet:%s needs a reason", d.verb)
						}
					default:
						pass.Reportf(d.pos, "unknown ckvet directive %q", d.verb)
					}
				}
			}
		}
	},
}

// funcDirectives resolves the directives governing each function-shaped
// node in the package: FuncDecls via their doc comments, and FuncLits via
// a directive comment group ending on the line immediately above the
// statement that contains them (the `phase := func(...)` idiom in the
// engine builders).
type funcDirectives struct {
	allocFree map[ast.Node]bool // FuncDecl or FuncLit
	allocsOK  map[ast.Node]bool
}

func collectFuncDirectives(pkg *Package) *funcDirectives {
	fd := &funcDirectives{
		allocFree: map[ast.Node]bool{},
		allocsOK:  map[ast.Node]bool{},
	}
	for _, f := range pkg.Files {
		// Map from line -> comment group ending on it, for FuncLit lookup.
		endLine := map[int]*ast.CommentGroup{}
		for _, cg := range f.Comments {
			endLine[pkg.Fset.Position(cg.End()).Line] = cg
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if hasDirective(n.Doc, "allocfree") {
					fd.allocFree[n] = true
				}
				if hasDirective(n.Doc, "allocs") {
					fd.allocsOK[n] = true
				}
			case *ast.AssignStmt, *ast.ValueSpec:
				// A directive above `name := func(...) {...}` (or a var spec)
				// governs every func literal on its right-hand side.
				cg := endLine[pkg.Fset.Position(n.Pos()).Line-1]
				if cg == nil {
					return true
				}
				af, al := hasDirective(cg, "allocfree"), hasDirective(cg, "allocs")
				if !af && !al {
					return true
				}
				var rhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					rhs = n.Rhs
				case *ast.ValueSpec:
					rhs = n.Values
				}
				for _, e := range rhs {
					if lit, ok := e.(*ast.FuncLit); ok {
						if af {
							fd.allocFree[lit] = true
						}
						if al {
							fd.allocsOK[lit] = true
						}
					}
				}
			}
			return true
		})
	}
	return fd
}
