// Command benchsnap converts `go test -bench` output on stdin into a JSON
// snapshot keyed by benchmark name, so successive PRs accumulate a perf
// trajectory (BENCH_1.json, BENCH_2.json, ...) that can be diffed or
// plotted without re-running old commits.
//
// Usage:
//
//	go test -run=NONE -bench . -benchmem | go run ./cmd/benchsnap -o BENCH_1.json
//
// Lines that are not benchmark results (headers, PASS, ok) are ignored and
// echoed to stderr so the run stays observable in a pipeline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements. NsPerOp, BytesPerOp and
// AllocsPerOp are the standard columns; Extra holds any custom metrics
// (e.g. bytes/msg from ReportMetric).
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is the file layout: environment header plus name→result. There
// is no package field: one snapshot spans many packages, and a single
// header value could only name one of them.
type Snapshot struct {
	GOOS       string            `json:"goos,omitempty"`
	GOARCH     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	outPath := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	snap := Snapshot{Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if name, res, ok := parseBenchLine(line); ok {
				snap.Benchmarks[name] = res
				continue
			}
			fmt.Fprintln(os.Stderr, line)
		default:
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap: read:", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchsnap: no benchmark lines on stdin")
		os.Exit(1)
	}

	data, err := marshalStable(&snap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	if *outPath == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchsnap: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *outPath)
}

// parseBenchLine parses one result line:
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   10 allocs/op   1.5 x/msg
//
// The name's -N GOMAXPROCS suffix is stripped so snapshots from machines
// with different core counts stay comparable by key.
func parseBenchLine(line string) (string, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	res := Result{Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = val
		case "B/op":
			res.BytesPerOp = val
		case "allocs/op":
			res.AllocsPerOp = val
		default:
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[unit] = val
		}
		seen = true
	}
	return name, res, seen
}

// marshalStable renders the snapshot with benchmark keys sorted, so
// consecutive snapshots diff cleanly.
func marshalStable(s *Snapshot) ([]byte, error) {
	names := make([]string, 0, len(s.Benchmarks))
	for n := range s.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	writeHeader := func(k, v string) {
		if v != "" {
			fmt.Fprintf(&b, "  %q: %q,\n", k, v)
		}
	}
	writeHeader("goos", s.GOOS)
	writeHeader("goarch", s.GOARCH)
	writeHeader("cpu", s.CPU)
	b.WriteString("  \"benchmarks\": {\n")
	for i, n := range names {
		item, err := json.Marshal(s.Benchmarks[n])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "    %q: %s", n, item)
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("  }\n}\n")
	return []byte(b.String()), nil
}
