package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"cycledetect/internal/graph"
	"cycledetect/internal/serve"
	"cycledetect/internal/sweep"
)

// checkAnswer compares a served answer with the library's own answer to
// the same input, then checks what every answer of the workload must show:
// its round count, a witness that is a real k-cycle and, past set-up
// (checkCache), the cache status the workload is built to produce.
func (ld *queryLoad) checkAnswer(got *serve.QueryResponse, in *queryInput, checkCache bool) error {
	want := in.want
	switch {
	case got.Rejected != want.Rejected:
		return fmt.Errorf("rejected %v, library says %v", got.Rejected, want.Rejected)
	case !slices.Equal(got.Witness, want.Witness):
		return fmt.Errorf("witness %v, library says %v", got.Witness, want.Witness)
	case !slices.Equal(got.RejectingIDs, want.RejectingIDs):
		return fmt.Errorf("rejecting ids differ from the library's (%d vs %d)", len(got.RejectingIDs), len(want.RejectingIDs))
	case got.Rounds != want.Rounds || got.Messages != want.Messages || got.TotalBits != want.TotalBits:
		return fmt.Errorf("rounds/messages/bits %d/%d/%d, library says %d/%d/%d",
			got.Rounds, got.Messages, got.TotalBits, want.Rounds, want.Messages, want.TotalBits)
	case got.Rounds != ld.rounds:
		return fmt.Errorf("%d rounds, want %d", got.Rounds, ld.rounds)
	case checkCache && got.Cache != ld.wantCache:
		return fmt.Errorf("cache %q, want %q", got.Cache, ld.wantCache)
	}
	if got.Rejected {
		return checkCycle(in.g, got.Witness, in.req.K)
	}
	return nil
}

// checkCycle verifies that w is a simple k-cycle of g (node IDs are vertex
// indices under the default ID assignment every workload uses).
func checkCycle(g *graph.Graph, w []int64, k int) error {
	if len(w) != k {
		return fmt.Errorf("witness %v has %d nodes, want %d", w, len(w), k)
	}
	seen := map[int64]bool{}
	for i, v := range w {
		if v < 0 || v >= int64(g.N()) || seen[v] {
			return fmt.Errorf("witness %v is not a simple cycle of the graph", w)
		}
		seen[v] = true
		u := w[(i+1)%k]
		if u < 0 || u >= int64(g.N()) || !g.HasEdge(int(v), int(u)) {
			return fmt.Errorf("witness %v: {%d,%d} is not an edge", w, v, u)
		}
	}
	return nil
}

// goldenPath is where the committed sweep rows for a trial count live.
func goldenPath(trials int) string {
	return filepath.Join("testdata", fmt.Sprintf("sweep_golden_t%d.jsonl", trials))
}

// rowKey is a sweep row as the golden holds it: every field but the wall
// time.
func rowKey(r sweep.Result) (string, error) {
	r.Elapsed = 0
	b, err := json.Marshal(&r)
	return string(b), err
}

// loadGolden reads the committed rows for a trial count. dir is the
// benchmark's own directory.
func loadGolden(dir string, trials int) ([]string, error) {
	b, err := os.ReadFile(filepath.Join(dir, goldenPath(trials)))
	if err != nil {
		return nil, fmt.Errorf("sweep golden: %w", err)
	}
	var rows []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			rows = append(rows, string(line))
		}
	}
	return rows, sc.Err()
}

// checkRows compares one sweep pass with the golden and returns one error
// per mismatching row, plus one if the row count differs. Tree rows must
// also show no rejects: a tree has no cycle, and the tester is 1-sided.
func checkRows(rows []sweep.Result, golden []string) []error {
	var errs []error
	if len(rows) != len(golden) {
		errs = append(errs, fmt.Errorf("sweep produced %d rows, golden has %d", len(rows), len(golden)))
	}
	for i, r := range rows {
		key, err := rowKey(r)
		switch {
		case err != nil:
			errs = append(errs, err)
		case i < len(golden) && key != golden[i]:
			errs = append(errs, fmt.Errorf("sweep row %d differs from golden:\n got %s\nwant %s", i, key, golden[i]))
		case r.Graph.Family == "tree" && r.Rejects != 0:
			errs = append(errs, fmt.Errorf("sweep row %d: tree rejected %d times", i, r.Rejects))
		}
	}
	return errs
}

// writeGolden records rows as the committed golden for their trial count.
func writeGolden(dir string, trials int, rows []sweep.Result) error {
	var buf bytes.Buffer
	for _, r := range rows {
		key, err := rowKey(r)
		if err != nil {
			return err
		}
		buf.WriteString(key)
		buf.WriteByte('\n')
	}
	path := filepath.Join(dir, goldenPath(trials))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
