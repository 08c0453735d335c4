// Command sweep runs a declarative parameter sweep end-to-end: it reads a
// JSON spec file (grids over graph family, k, ε, trials), fans the
// jobs across a worker pool of reusable networks, and streams per-job
// aggregates incrementally to stdout (or a file) as CSV or JSON lines.
//
// Streaming guarantee: job i's row is written AND flushed to the output as
// soon as jobs 0..i have finished, while later jobs are still running — a
// consumer tailing the output (or piping it) sees results with incremental
// delay, never batched at sweep end.
//
//	sweep -spec spec.json                 # CSV to stdout, streamed in job order
//	sweep -spec spec.json -format json    # JSON lines instead
//	sweep -spec spec.json -o out.csv      # write to a file
//	sweep -example                        # print a commented example spec and exit
//
// Spec example (all grids cross-multiply; see internal/sweep for the fields):
//
//	{
//	  "name": "detection-vs-eps",
//	  "graphs": [
//	    {"family": "far", "n": 90},
//	    {"family": "gnm", "n": 128, "m": 512}
//	  ],
//	  "k": [3, 5, 7],
//	  "eps": [0.15, 0.08, 0.04],
//	  "trials": 15,
//	  "seed": 11
//	}
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"cycledetect/internal/sweep"
)

const exampleSpec = `{
  "name": "detection-vs-eps",
  "graphs": [
    {"family": "far", "n": 90},
    {"family": "gnm", "n": 128, "m": 512}
  ],
  "k": [3, 5, 7],
  "eps": [0.15, 0.08, 0.04],
  "trials": 15,
  "seed": 11
}
`

func main() {
	var (
		specPath = flag.String("spec", "", "JSON spec file (required unless -example)")
		format   = flag.String("format", "csv", "output format: csv or json")
		outPath  = flag.String("o", "", "output file (default stdout)")
		workers  = flag.Int("workers", 0, "scheduler workers (overrides the spec; 0 keeps it)")
		example  = flag.Bool("example", false, "print an example spec and exit")
	)
	flag.Parse()

	if *example {
		fmt.Print(exampleSpec)
		return
	}
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "sweep: -spec is required (try -example for a template)")
		os.Exit(2)
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fatal(err)
	}
	var spec sweep.Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		fatal(fmt.Errorf("sweep: parsing %s: %w", *specPath, err))
	}
	if *workers > 0 {
		spec.Workers = *workers
	}
	for _, w := range spec.Warnings() {
		fmt.Fprintln(os.Stderr, "sweep: warning:", w)
	}

	var out io.Writer = os.Stdout
	var outFile *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		outFile = f
		out = f
	}
	var sink sweep.Sink
	switch *format {
	case "csv":
		sink = sweep.NewCSVSink(out)
	case "json":
		sink = sweep.NewJSONSink(out)
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown format %q (want csv or json)\n", *format)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the sweep mid-trial (RunProgramCtx aborts the
	// in-flight CONGEST runs at their next round barrier); rows already
	// written stay on the output, so an interrupted sweep is a usable
	// prefix, not a corrupt file.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sum, err := sweep.RunCtx(ctx, &spec, nil, sink)
	if errors.Is(err, context.Canceled) {
		err = fmt.Errorf("sweep: interrupted (rows written so far are complete)")
	}
	if outFile != nil {
		// A failed Close can lose buffered bytes; exiting 0 with a
		// truncated output file would poison downstream consumers.
		if cerr := outFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep: %q: %d jobs (%d grid points skipped), %d trials in %v\n",
		sum.Name, sum.Jobs, sum.Skipped, sum.Trials, sum.Elapsed.Round(1e6))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
