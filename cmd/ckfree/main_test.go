package main

import "testing"

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
