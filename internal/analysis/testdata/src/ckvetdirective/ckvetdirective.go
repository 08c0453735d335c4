// Package ckvetdirective exercises the Directives meta-analyzer. The
// expectations live in analyzers_test.go (TestDirectives) rather than in
// `// want` comments: the diagnostics land on the directive comments
// themselves, and a line comment cannot carry a second comment.
package ckvetdirective

// The hotalloc analyzer that read these two verbs is gone, so a leftover
// is an unknown verb.
//
//ckvet:allocfree
func annotated() int { return 1 }

//ckvet:allocs building the panic value is the cold path
func justified() {}

//ckvet:ignroe
func typoed() int { return 2 }

// A context field has no allowlist, so the directive that once was one is
// an unknown verb.
type holder struct {
	//ckvet:ctxfield run-handoff slot
	n int
}

func suppressions() {
	_ = annotated() //ckvet:ignore exercised at startup only
	_ = typoed()    //ckvet:ignore
}
