// Command experiments regenerates every reproduced table and figure (E1–E12;
// README "Experiments (E1–E12)" indexes them). Each table prints the paper's
// claim, the measured values, and a PASS/FAIL line; the process exits
// non-zero if any claim is violated.
//
//	experiments             # full sweeps (about a minute)
//	experiments -quick      # reduced sweeps (seconds)
//	experiments -only E2,E8 # a subset
//	experiments -parallel   # run experiments concurrently, print in order
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"cycledetect/internal/bench"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced sample sizes")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		only     = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		parallel = flag.Bool("parallel", false, "run experiments concurrently (output order is preserved)")
	)
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	cfg := bench.Config{Seed: *seed, Quick: *quick}
	if *parallel {
		// The parallelism budget is spent across experiments; cap each
		// simulation's BSP pool at one worker so the machine is not
		// oversubscribed with experiments × pool-workers goroutines.
		cfg.Workers = 1
	}
	var selected []bench.Runner
	for _, r := range bench.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		selected = append(selected, r)
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "experiments: no experiment matched -only")
		os.Exit(2)
	}

	type outcome struct {
		tbl     *bench.Table
		elapsed time.Duration
	}
	run := func(r bench.Runner) outcome {
		start := time.Now()
		return outcome{tbl: r.Run(cfg), elapsed: time.Since(start)}
	}
	results := make([]chan outcome, len(selected))
	if *parallel {
		// Experiments share nothing (each builds its own RNGs and graphs),
		// so they parallelize trivially; a semaphore caps the fan-out at
		// the core count and the per-slot channels let printing proceed in
		// index order while later experiments are still running.
		for i := range results {
			results[i] = make(chan outcome, 1)
		}
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for i, r := range selected {
			go func(i int, r bench.Runner) {
				sem <- struct{}{}
				defer func() { <-sem }()
				results[i] <- run(r)
			}(i, r)
		}
	}

	failures := 0
	for i, r := range selected {
		var out outcome
		if *parallel {
			out = <-results[i]
		} else {
			out = run(r)
		}
		fmt.Println(out.tbl.Format())
		fmt.Printf("(%s took %v)\n\n", r.ID, out.elapsed.Round(time.Millisecond))
		failures += out.tbl.Violations
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d claim violations\n", failures)
		os.Exit(1)
	}
	fmt.Printf("all %d experiments passed\n", len(selected))
}
