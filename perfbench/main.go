// Command perfbench is the repository benchmark. It runs one workload in
// one process and prints, as the last line of its output, one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). README.md beside this file explains the workloads, the
// metrics and how to run it; run.sh builds it from the checkout's sources.
//
//	perfbench --workload query-hit|query-miss|sweep --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"cycledetect/internal/sweep"
)

func main() {
	workload := flag.String("workload", "", "query-hit, query-miss or sweep")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: also replay the first inputs traced and print per-layer metrics")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	dir, err := benchDir()
	if err != nil {
		fatalf("%v", err)
	}
	cfg := config{
		workload: *workload, seed: *seed, trace: *trace == 1,
		params: defaultParams(*seconds), dir: dir, out: filepath.Join(".bench_build", "perfbench"),
	}
	o, err := run(context.Background(), cfg)
	if err != nil {
		fatalf("%v", err)
	}
	o.print(os.Stdout, cfg)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// benchDir locates the benchmark's own directory (its testdata) from the
// working directory: the repository root, or the directory itself when run
// as a test.
func benchDir() (string, error) {
	for _, d := range []string{"perfbench", "."} {
		if _, err := os.Stat(filepath.Join(d, "testdata", "sweep_golden_t1.jsonl")); err == nil {
			return d, nil
		}
	}
	return "", fmt.Errorf("run from the repository root: perfbench/testdata not found")
}

type config struct {
	workload string
	seed     uint64
	trace    bool
	params   params
	dir      string // the benchmark's directory
	out      string // where span dumps and count records go
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload run: operations attempted and failed, the
// end-to-end metrics, and with tracing the per-layer metrics.
type outcome struct {
	attempted, failed int
	errs              []error

	e2e     map[string]metric
	e2eNote map[string]string

	layer     map[string]metric
	layerNote map[string]string
	report    []string // traced-run table lines printed after the metrics
}

func newOutcome() *outcome {
	return &outcome{
		e2e: map[string]metric{}, e2eNote: map[string]string{},
		layer: map[string]metric{}, layerNote: map[string]string{},
	}
}

// fail records n failed operations with their cause.
func (o *outcome) fail(n int, errs ...error) {
	o.failed += n
	for _, err := range errs {
		if len(o.errs) < 5 {
			o.errs = append(o.errs, err)
		}
	}
}

func (o *outcome) setE2E(name string, v float64, note string) {
	o.e2e[name] = metric{Value: v, Unit: unitOf(e2eMetrics, name)}
	o.e2eNote[name] = note
}

func (o *outcome) setLayer(name string, v float64, note string) {
	o.layer[name] = metric{Value: v, Unit: unitOf(layerMetrics, name)}
	o.layerNote[name] = note
}

// na marks a per-layer metric the workload does not exercise; it prints as
// 0 with the reason in the table.
func (o *outcome) na(name, why string) { o.setLayer(name, 0, "n/a: "+why) }

// metricDef is one metric the benchmark prints. A table-only metric is a
// time that some workload does not exercise, where it would read 0 on every
// run: it is printed in the table, with the reason where it does not apply,
// but left out of the result line.
type metricDef struct {
	name, unit string
	tableOnly  bool
}

// e2eMetrics and layerMetrics list every metric; the ones that are not
// table-only are BENCHMARK.json's, in its order.
var e2eMetrics = []metricDef{
	{"setup_s", "s", false}, {"qps", "1/s", false}, {"p10_ms", "ms", false}, {"tail_ms", "ms", false},
	{"trials_per_s", "1/s", false}, {"rss_mb", "MB", false},
}

var layerMetrics = []metricDef{
	{"serve.decode_ms", "ms", true}, {"serve.encode_ms", "ms", true}, {"serve.overhead_ms", "ms", true},
	{"corestore.checkout_ms", "ms", true}, {"corestore.hit_ratio", "ratio", false}, {"corestore.evictions_per_op", "count", false},
	{"graph.build_ms", "ms", true}, {"graph.connected_ms", "ms", true}, {"graph.fingerprint_ms", "ms", true}, {"graph.generate_ms", "ms", true},
	{"network.compile_ms", "ms", false}, {"network.instance_ms", "ms", false}, {"network.prepare_ms", "ms", false},
	{"network.deliver_ms", "ms", false}, {"network.loop_ms", "ms", false},
	{"network.rounds", "count", false}, {"network.messages", "count", false}, {"network.bits", "bit", false},
	{"core.node_build_ms", "ms", false}, {"core.node_reset_ms", "ms", true}, {"core.send_ms", "ms", false},
	{"core.recv_ms", "ms", false}, {"core.summarize_ms", "ms", false}, {"core.max_seqs", "count", false},
	{"sweep.job_ms.k3", "ms", true}, {"sweep.job_ms.k5", "ms", true}, {"sweep.job_ms.k7", "ms", true}, {"sweep.job_ms.k9", "ms", true},
	{"sweep.idle_share", "ratio", false},
	{"runtime.alloc_mb_per_op", "MB", false}, {"runtime.gc_per_kop", "count", false}, {"runtime.heap_live_mb", "MB", false},
	{"trace.overhead_ms", "ms", false},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: unknown metric " + name)
}

// run executes one workload.
func run(ctx context.Context, cfg config) (*outcome, error) {
	switch cfg.workload {
	case "query-hit":
		ld, err := hitLoad(cfg.seed, cfg.params)
		if err != nil {
			return nil, err
		}
		return runQuery(ctx, cfg, ld)
	case "query-miss":
		ld, err := missLoad(cfg.seed, cfg.params)
		if err != nil {
			return nil, err
		}
		return runQuery(ctx, cfg, ld)
	case "sweep":
		return runSweep(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
}

// workloads lists the workloads in BENCHMARK.json order.
var workloads = []string{"query-hit", "query-miss", "sweep"}

// runQuery runs a query workload: set-up several times (each a fresh
// server, timed until its set-up requests are answered), then the timed
// closed loop on the last server, then with tracing the replay. Every
// set-up and every block of the timed loop sits between two host
// measurements (calib.go).
func runQuery(ctx context.Context, cfg config, ld *queryLoad) (*outcome, error) {
	p := cfg.params
	o := newOutcome()
	cal := newCalibrator(p.calRounds)
	warmCPU(p.warmCPU)

	var sv *server
	var setups, rawSetups []float64
	k0 := cal.measure()
	for i := 0; i < p.setups; i++ {
		if sv != nil {
			if err := sv.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if sv, err = startServer(ld.opts); err != nil {
			return nil, err
		}
		r := sv.closedLoop(ld, 0, 0, ld.setupOps, false)
		d := time.Since(t0).Seconds()
		k1 := cal.measure()
		rawSetups = append(rawSetups, d)
		setups = append(setups, d*factor(k0, k1))
		k0 = k1
		o.attempted += len(r.samples) + r.failed
		o.fail(r.failed, r.errs...)
	}

	runtime.GC() // start the timed phase without the set-ups' garbage
	before := sv.s.Stats()
	m0 := readMem()
	r, refWall := sv.timedLoop(ld, cal, p)
	mem := endMem(m0)
	after := sv.s.Stats()
	if err := sv.close(); err != nil {
		return nil, err
	}
	ops := len(r.samples) + r.failed
	o.attempted += ops
	o.fail(r.failed, r.errs...)
	if len(r.samples) == 0 {
		return nil, fmt.Errorf("%s: no request succeeded in the timed phase (%v)", ld.name, r.errs)
	}

	lats := make([]float64, len(r.samples))
	refLats := make([]float64, len(r.samples))
	over := make([]float64, len(r.samples))
	for i, s := range r.samples {
		lats[i] = float64(s.lat) / float64(time.Millisecond)
		refLats[i] = s.refMS()
		over[i] = lats[i] - s.elapsed
	}
	n := float64(len(r.samples))
	qps := n / refWall.Seconds()
	p50 := median(lats)
	tl, pct := tail(refLats)
	rawTail, _ := tail(lats)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.setE2E("setup_s", median(setups), fmt.Sprintf("median of %d set-ups; raw %s", len(setups), fmtList(rawSetups, "%.3f")))
	o.setE2E("qps", qps, fmt.Sprintf("%d answered in %.2f s, %d clients; raw %.3f", len(r.samples), r.wall.Seconds(), clients, n/r.wall.Seconds()))
	o.setE2E("p10_ms", quantile(refLats, 0.1), fmt.Sprintf("client-side latency; p50 %.3f; raw p10 %.3f, p50 %.3f",
		median(refLats), quantile(lats, 0.1), p50))
	o.setE2E("tail_ms", tl, fmt.Sprintf("p%.2f of %d samples; raw %.3f", pct, len(lats), rawTail))
	o.setE2E("trials_per_s", qps, "one tester or detector trial per query, so equal to qps")
	o.setE2E("rss_mb", rss, "peak resident set (VmHWM)")
	o.report = append(o.report, cal.summary())

	if !cfg.trace {
		return o, nil
	}
	o.setLayer("serve.overhead_ms", median(over), "median of client latency minus elapsed_ms, timed phase")
	lookups := (after.Hits - before.Hits) + (after.Misses - before.Misses)
	if lookups > 0 {
		o.setLayer("corestore.hit_ratio", float64(after.Hits-before.Hits)/float64(lookups), "Server.Stats delta, timed phase")
	}
	o.setLayer("corestore.evictions_per_op", float64(after.Evictions-before.Evictions)/float64(ops), "Server.Stats delta, timed phase")
	o.setRuntime(mem, ops, "request")
	for _, k := range []string{"k3", "k5", "k7", "k9"} {
		o.na("sweep.job_ms."+k, "no sweep in this workload")
	}
	o.na("sweep.idle_share", "no sweep in this workload")

	runtime.GC()
	rec := newRecorder()
	rr := replayQuery(ctx, ld, p, rec)
	o.replayed(cfg, rec, rr, p50, "request")
	if ld.name == "query-hit" {
		o.na("graph.build_ms", "family graphs are generated, not uploaded")
		o.na("graph.connected_ms", "family graphs are generated connected")
	} else {
		o.na("graph.generate_ms", "graphs are uploaded as edge lists")
		o.na("core.node_reset_ms", "every request runs on a fresh instance")
	}
	return o, nil
}

// runSweep runs the sweep workload: one-trial passes as set-up, then full
// passes until the timed phase is over, every row checked against the
// committed golden.
func runSweep(ctx context.Context, cfg config) (*outcome, error) {
	p := cfg.params
	o := newOutcome()
	golden1, err := loadGolden(cfg.dir, 1)
	if err != nil {
		return nil, err
	}
	goldenT, err := loadGolden(cfg.dir, p.sweepTrials)
	if err != nil {
		return nil, err
	}
	cal := newCalibrator(p.calRounds)
	warmCPU(p.warmCPU)

	pass := func(trials int, golden []string) ([]sweep.Result, time.Duration) {
		rows, wall, err := sweepPass(ctx, sweepSpec(trials))
		o.attempted += len(golden)
		if err != nil {
			o.fail(len(golden), err)
			return nil, wall
		}
		errs := checkRows(rows, golden)
		o.fail(len(errs), errs...)
		return rows, wall
	}
	// Every set-up pass sits between two host measurements, and so does
	// every block of timed passes at least blockSeconds long.
	k0 := cal.measure()
	hostFactor := func() float64 {
		k1 := cal.measure()
		f := factor(k0, k1)
		k0 = k1
		return f
	}
	var setups, rawSetups []float64
	for i := 0; i < p.setups; i++ {
		_, wall := pass(1, golden1)
		rawSetups = append(rawSetups, wall.Seconds())
		setups = append(setups, wall.Seconds()*hostFactor())
	}

	runtime.GC()
	m0 := readMem()
	var (
		walls, refWalls time.Duration
		passes          int
		trials          int
		jobMS, refJobMS []float64
		perK            = map[int]float64{}
		busy            time.Duration
		block           time.Duration // wall time of the passes since the last measurement
		blockFrom       int           // their first row
	)
	for {
		rows, wall := pass(p.sweepTrials, goldenT)
		walls += wall
		block += wall
		passes++
		for _, r := range rows {
			trials += r.Trials
			ms := float64(r.Elapsed) / float64(time.Millisecond)
			jobMS = append(jobMS, ms)
			perK[r.K] += ms
			busy += r.Elapsed
		}
		done := walls.Seconds() >= p.seconds || (p.maxOps > 0 && len(jobMS) >= p.maxOps)
		if done || block.Seconds() >= blockSeconds {
			f := hostFactor()
			refWalls += time.Duration(float64(block) * f)
			for _, ms := range jobMS[blockFrom:] {
				refJobMS = append(refJobMS, ms*f)
			}
			block, blockFrom = 0, len(jobMS)
		}
		if done {
			break
		}
	}
	mem := endMem(m0)
	if len(jobMS) == 0 {
		return nil, fmt.Errorf("sweep: no pass completed (%v)", o.errs)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	p50 := median(jobMS)
	tl, pct := tail(refJobMS)
	rawTail, _ := tail(jobMS)
	rows := float64(len(jobMS))
	o.setE2E("setup_s", median(setups), fmt.Sprintf("median of %d one-trial passes; raw %s", len(setups), fmtList(rawSetups, "%.3f")))
	o.setE2E("qps", rows/refWalls.Seconds(), fmt.Sprintf("sweep rows per second: %d rows in %d passes, %.2f s; raw %.3f",
		len(jobMS), passes, walls.Seconds(), rows/walls.Seconds()))
	o.setE2E("p10_ms", quantile(refJobMS, 0.1), fmt.Sprintf("per-job wall time (one row, %d trials); p50 %.3f; raw p10 %.3f, p50 %.3f",
		p.sweepTrials, median(refJobMS), quantile(jobMS, 0.1), p50))
	o.setE2E("tail_ms", tl, fmt.Sprintf("p%.2f of %d jobs; raw %.3f", pct, len(jobMS), rawTail))
	o.setE2E("trials_per_s", float64(trials)/refWalls.Seconds(), fmt.Sprintf("%d trials; raw %.3f", trials, float64(trials)/walls.Seconds()))
	o.setE2E("rss_mb", rss, "peak resident set (VmHWM)")
	o.report = append(o.report, cal.summary())

	if !cfg.trace {
		return o, nil
	}
	for _, k := range []int{3, 5, 7, 9} {
		o.setLayer(fmt.Sprintf("sweep.job_ms.k%d", k), perK[k]/float64(passes), "row elapsed summed per k, per pass")
	}
	workers := sweepSpec(1).Workers
	o.setLayer("sweep.idle_share", 1-busy.Seconds()/(float64(workers)*walls.Seconds()), "1 - job time / (workers x wall)")
	o.setRuntime(mem, len(jobMS), "job")
	for _, name := range []string{"serve.decode_ms", "serve.encode_ms", "serve.overhead_ms"} {
		o.na(name, "the sweep runs in-process, without HTTP")
	}
	for _, name := range []string{"corestore.checkout_ms", "corestore.hit_ratio", "corestore.evictions_per_op"} {
		o.na(name, "the standalone sweep provider does not use corestore")
	}
	for _, name := range []string{"graph.build_ms", "graph.connected_ms", "graph.fingerprint_ms"} {
		o.na(name, "sweep graphs are generated and never fingerprinted")
	}

	runtime.GC()
	rec := newRecorder()
	rr := replaySweep(ctx, sweepSpec(p.sweepTrials), goldenT, rec)
	o.replayed(cfg, rec, rr, p50, "job")
	return o, nil
}

// setRuntime reports the Go runtime's view of the timed phase per
// operation.
func (o *outcome) setRuntime(mem memDelta, ops int, unit string) {
	o.setLayer("runtime.alloc_mb_per_op", mem.allocMB/float64(ops), "MiB allocated per "+unit+", timed phase")
	o.setLayer("runtime.gc_per_kop", float64(mem.gcs)*1000/float64(ops), "GC cycles per 1000 "+unit+"s, timed phase")
	o.setLayer("runtime.heap_live_mb", mem.liveMB, "after a forced GC at the end of the timed phase")
}

// spanMetric maps span names to the per-layer metric their self time
// feeds; network.run's self time is the round-loop residue, and Output
// calls count as receive-side node work (the detector detects in Output).
var spanMetric = map[string]string{
	"serve.decode": "serve.decode_ms", "serve.encode": "serve.encode_ms",
	"corestore.checkout": "corestore.checkout_ms",
	"graph.build":        "graph.build_ms", "graph.connected": "graph.connected_ms",
	"graph.fingerprint": "graph.fingerprint_ms", "graph.generate": "graph.generate_ms",
	"network.compile": "network.compile_ms", "network.instance": "network.instance_ms",
	"network.prepare": "network.prepare_ms", "network.deliver": "network.deliver_ms",
	"network.run":     "network.loop_ms",
	"core.node_build": "core.node_build_ms", "core.node_reset": "core.node_reset_ms",
	"core.send": "core.send_ms", "core.recv": "core.recv_ms", "core.output": "core.recv_ms",
	"core.summarize": "core.summarize_ms",
}

// replayed turns a traced replay into per-layer metrics, the exact-count
// check and the span dump. p50 is the untraced run's p50_ms; unit names an
// operation.
func (o *outcome) replayed(cfg config, rec *recorder, rr replayResult, p50 float64, unit string) {
	o.attempted += rr.ops
	o.fail(len(rr.errs), rr.errs...)
	if rr.ops == 0 {
		return
	}
	perOp := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(rr.ops) }
	self := rec.selfTimes()
	sums := map[string]time.Duration{}
	for name, d := range self {
		if m, ok := spanMetric[name]; ok {
			sums[m] += d
		}
	}
	for _, m := range spanMetric {
		if _, set := o.layer[m]; !set {
			o.setLayer(m, perOp(sums[m]), "self time per "+unit)
		}
	}
	if !rr.split {
		for _, m := range []string{"network.prepare_ms", "network.deliver_ms", "core.node_build_ms",
			"core.node_reset_ms", "core.send_ms", "core.recv_ms"} {
			o.na(m, "phase split unavailable (multi-worker instance or vertex order violated)")
		}
		o.setLayer("network.loop_ms", perOp(sums["network.loop_ms"]), "whole engine run: phase split unavailable")
	}
	ops := float64(rr.ops)
	o.setLayer("network.rounds", float64(rr.rounds)/ops, "per "+unit)
	o.setLayer("network.messages", float64(rr.messages)/ops, "per "+unit)
	o.setLayer("network.bits", float64(rr.bits)/ops, "per "+unit)
	o.setLayer("core.max_seqs", float64(rr.maxSeqs), "max over the replay (Lemma 3 quantity)")

	var opMS []float64
	for _, d := range rec.opTimes() {
		opMS = append(opMS, float64(d)/float64(time.Millisecond))
	}
	traced := median(opMS)
	o.setLayer("trace.overhead_ms", traced-p50, fmt.Sprintf("traced median %.3f ms/%s - untraced p50 %.3f ms", traced, unit, p50))

	// The self-time table: every span name, by layer.
	o.report = append(o.report, fmt.Sprintf("traced replay: %d %ss, %d spans; self time per %s:", rr.ops, unit, len(rec.spans), unit))
	var total time.Duration
	for _, d := range self {
		total += d
	}
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		label := name
		if name == "op" {
			label = "harness (request glue, release)"
		}
		o.report = append(o.report, fmt.Sprintf("  %-34s %10.4f ms  %5.1f%%", label, perOp(self[name]),
			100*float64(self[name])/float64(max(total, 1))))
	}

	c := counts{
		Ops: rr.ops, Rounds: rr.rounds, Messages: rr.messages, Bits: rr.bits, MaxSeqs: rr.maxSeqs,
		HitRatio: o.layer["corestore.hit_ratio"].Value, EvictionsPerOp: o.layer["corestore.evictions_per_op"].Value,
	}
	o.report = append(o.report, checkCounts(cfg, c)...)

	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	header := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "host": readHost(), "ops": rr.ops}
	if err := rec.dump(path, header); err != nil {
		o.report = append(o.report, "span dump failed: "+err.Error())
	} else {
		o.report = append(o.report, "spans written to "+path)
	}
	o.report = append(o.report, fmt.Sprintf("tracing overhead: %.3f ms per %s (traced median %.3f - untraced p50 %.3f)",
		traced-p50, unit, traced, p50))
}

// print writes the human-readable report, then the result line.
func (o *outcome) print(w io.Writer, cfg config) {
	h := readHost()
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.params.seconds, cfg.trace)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU)
	for _, err := range o.errs {
		fmt.Fprintf(w, "FAILED: %v\n", err)
	}
	metrics := map[string]metric{}
	defs, vals, notes := e2eMetrics, o.e2e, o.e2eNote
	if cfg.trace {
		defs, vals, notes = layerMetrics, o.layer, o.layerNote
	}
	for _, d := range defs {
		m, ok := vals[d.name]
		if !ok {
			m, notes[d.name] = metric{Unit: d.unit}, "n/a: not measured in this run"
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value, notes[d.name] = 0, "n/a: undefined ("+notes[d.name]+")"
		}
		if !d.tableOnly {
			metrics[d.name] = m
		}
		fmt.Fprintf(w, "%-28s %14.4f %-6s %s\n", d.name, m.Value, d.unit, notes[d.name])
	}
	for _, line := range o.report {
		fmt.Fprintln(w, line)
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
	fmt.Fprintln(w, string(b))
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
