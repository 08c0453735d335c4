package analysis

// ckvet source directives. A directive is a `//ckvet:<verb>` comment —
// no space after the slashes, like //go: directives — on the same line as
// the code it suppresses:
//
//	if _, err := w.Write(buf); err != nil { //ckvet:ignore scrape path, r.mu guards registration
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
	verb   string // "ignore" is the only known verb
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
// unknown verbs (a typo like //ckvet:ignroe silently keeping a finding, or
// a verb of a retired analyzer such as //ckvet:allocfree that no longer
// checks anything) and reasonless ignore directives are findings.
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
					switch {
					case d.verb != "ignore":
						pass.Reportf(d.pos, "unknown ckvet directive %q", d.verb)
					case d.reason == "":
						pass.Reportf(d.pos, "//ckvet:ignore needs a reason")
					}
				}
			}
		}
	},
}
