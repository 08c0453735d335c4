package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text format: a simple edge-list format shared by the cmd/ tools.
//
//	# comment
//	n <vertexCount>
//	<u> <v>
//	...
//
// Vertices are 0-based. Blank lines and lines starting with '#' are ignored.

// WriteText writes g in the text edge-list format.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text edge-list format and builds the graph with
// FromEdges.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	n := -1 // no header yet
	var edges [][2]int
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		fields := strings.Fields(txt)
		if fields[0] == "n" {
			if n >= 0 {
				return nil, fmt.Errorf("graph: line %d: duplicate n header", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: malformed n header", line)
			}
			var err error
			n, err = strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count %q", line, fields[1])
			}
			continue
		}
		if n < 0 {
			return nil, fmt.Errorf("graph: line %d: edge before n header", line)
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: expected %q", line, "u v")
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("graph: line %d: bad endpoints", line)
		}
		// Checked here too, so that the error names the line.
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("graph: line %d: invalid edge {%d,%d}", line, u, v)
		}
		edges = append(edges, [2]int{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: missing n header")
	}
	return FromEdges(n, edges)
}

// Equal reports whether two graphs have identical vertex counts and edge
// sets.
func Equal(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}
