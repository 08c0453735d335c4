// Package bench is the experiment harness: one runner per experiment of
// README's "Experiments (E1–E12)" index, each regenerating the paper-shaped
// table or figure for that claim. The cmd/experiments binary prints all of
// them, and the repository-root benchmarks wrap each runner in a testing.B
// target.
//
// The paper is theory-only, so "reproducing its evaluation" means measuring
// the quantities its theorems and lemmas bound — round counts, message
// sizes, detection probabilities, packing sizes — and checking the measured
// shape against the claimed bound. Each Table records both.
package bench

import (
	"fmt"
	"strings"
)

// Table is one reproduced table or figure.
type Table struct {
	// ID is the experiment identifier (e.g. "E2").
	ID string
	// Title is a human-readable name.
	Title string
	// Claim is the paper's statement being checked.
	Claim string
	// Header and Rows are the tabular payload.
	Header []string
	Rows   [][]string
	// Notes hold observations (e.g. "bound satisfied everywhere").
	Notes []string
	// Violations counts rows that contradict the paper's claim; a healthy
	// reproduction reports zero everywhere.
	Violations int
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned monospace text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	if t.Violations == 0 {
		sb.WriteString("PASS: no claim violations\n")
	} else {
		fmt.Fprintf(&sb, "FAIL: %d claim violations\n", t.Violations)
	}
	return sb.String()
}

// Config scales the experiment sweeps.
type Config struct {
	// Seed makes every experiment deterministic.
	Seed uint64
	// Quick shrinks sample counts for use inside unit tests and fast
	// benchmark iterations; the full sweeps are used by cmd/experiments.
	Quick bool
	// Workers caps each simulation's BSP worker pool (0 means GOMAXPROCS).
	// Callers that already parallelize across experiments (cmd/experiments
	// -parallel) set it to 1 so the machine is not oversubscribed with
	// experiments × pool-workers goroutines.
	Workers int
}

func (c Config) samples(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) *Table
}

// All lists every experiment in index order (E1 first).
func All() []Runner {
	return []Runner{
		{"E1", "RoundComplexity", RunE1},
		{"E2", "MessageBound", RunE2},
		{"E3", "OneSided", RunE3},
		{"E4", "Detection", RunE4},
		{"E5", "RankCollision", RunE5},
		{"E6", "Packing", RunE6},
		{"E7", "Fig1Trace", RunE7},
		{"E8", "PruningAblation", RunE8},
		{"E9", "SingleCycle", RunE9},
		{"E10", "Bandwidth", RunE10},
		{"E11", "Comparison", RunE11},
		{"E12", "RoundProfile", RunE12},
	}
}
