package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseEdge(t *testing.T) {
	u, v, err := parseEdge("3,7")
	if err != nil || u != 3 || v != 7 {
		t.Fatalf("got (%d,%d,%v)", u, v, err)
	}
	if _, _, err := parseEdge("3"); err == nil {
		t.Fatal("missing comma accepted")
	}
	if _, _, err := parseEdge("a,b"); err == nil {
		t.Fatal("non-numeric accepted")
	}
	u, v, err = parseEdge(" 1 , 2 ")
	if err != nil || u != 1 || v != 2 {
		t.Fatalf("whitespace handling: (%d,%d,%v)", u, v, err)
	}
}

func TestLoadGraphValidation(t *testing.T) {
	if _, err := loadGraph("", "", 3, 1); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := loadGraph("x.graph", "cycle:5", 3, 1); err == nil {
		t.Fatal("two sources accepted")
	}
	if _, err := loadGraph("/nonexistent/file.graph", "", 3, 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadGraphRefusesEmpty: a spec or file that yields a graph with no
// vertices is an error, as the library's ErrEmptyGraph is, not a run on
// zero nodes that accepts.
func TestLoadGraphRefusesEmpty(t *testing.T) {
	file := filepath.Join(t.TempDir(), "empty.graph")
	if err := os.WriteFile(file, []byte("n 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range []struct{ file, gen string }{{"", "path:0"}, {"", "grid:0,5"}, {file, ""}} {
		if _, err := loadGraph(src.file, src.gen, 3, 1); err == nil || !strings.Contains(err.Error(), "empty") {
			t.Errorf("%+v: err = %v, want the empty-graph refusal", src, err)
		}
	}
	if g, err := loadGraph("", "path:1", 3, 1); err != nil || g.N() != 1 {
		t.Fatalf("path:1: %v, want a one-vertex graph", err)
	}
}
