package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed sweep goldens from a fresh sweep")

// smokeParams shrinks a run to a few operations: one set-up, four timed
// operations, a small miss pool that still exceeds its cache bound.
func smokeParams() params {
	p := defaultParams(0)
	p.maxOps = 4
	p.setups = 1
	p.warmCPU = 0
	p.calRounds = 10
	p.hitSeeds = 4
	p.poolSize, p.poolN, p.poolM, p.maxGraphs = 4, 256, 1024, 2
	p.sweepTrials = 1
	p.replayOps = 4
	return p
}

// inResult returns the metrics of defs that the result line carries.
func inResult(defs []metricDef) []metricDef {
	var out []metricDef
	for _, d := range defs {
		if !d.tableOnly {
			out = append(out, d)
		}
	}
	return out
}

// TestUpdateGolden rewrites testdata/sweep_golden_t*.jsonl; run it with
// -update after a change that is meant to alter sweep results.
func TestUpdateGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite the sweep goldens")
	}
	for _, trials := range []int{1, defaultParams(0).sweepTrials} {
		rows, _, err := sweepPass(context.Background(), sweepSpec(trials))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeGolden(".", trials, rows); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root names
// the harness's workloads and exactly the metrics its result line carries,
// in the same order and with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bj struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, the harness runs %v", names, workloads)
	}
	for _, c := range []struct {
		key  string
		got  []def
		want []metricDef
	}{{"end_to_end", bj.EndToEnd, inResult(e2eMetrics)}, {"per_layer", bj.PerLayer, inResult(layerMetrics)}} {
		var got, want []string
		for _, d := range c.got {
			got = append(got, d.Name+" "+d.Unit)
		}
		for _, d := range c.want {
			want = append(want, d.name+" "+d.unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("BENCHMARK.json %s:\n got %v\nwant %v (the result line's)", c.key, got, want)
		}
	}
}

// TestSmoke runs every workload for a few operations, timed and traced,
// with every answer check on, and checks the result line's shape.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w + "/timed"
			if trace {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: w, seed: 3, trace: trace, params: smokeParams(), dir: ".", out: t.TempDir()}
				o, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				o.print(&buf, cfg)
				if o.failed != 0 {
					t.Fatalf("%d failed operations: %v\n%s", o.failed, o.errs, buf.String())
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res struct {
					Correct   bool                       `json:"correct"`
					Attempted int                        `json:"attempted"`
					Failed    int                        `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
				}
				defs := inResult(e2eMetrics)
				if trace {
					defs = inResult(layerMetrics)
				}
				if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(defs) {
					t.Fatalf("result %+v, want correct with %d metrics", res, len(defs))
				}
				if !trace {
					for _, d := range defs {
						if o.e2e[d.name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", d.name, o.e2e[d.name].Value)
						}
					}
					return
				}
				want := map[string]float64{}
				switch w {
				case "query-hit":
					want = map[string]float64{"corestore.hit_ratio": 1, "corestore.evictions_per_op": 0, "network.rounds": hitRounds}
				case "query-miss":
					want = map[string]float64{"corestore.hit_ratio": 0, "corestore.evictions_per_op": 1, "network.rounds": missRounds}
				}
				for name, v := range want {
					if got := o.layer[name].Value; got != v {
						t.Errorf("%s = %v, want %v", name, got, v)
					}
				}
				// Serve's instances always have one worker, so the split must hold.
				if w != "sweep" && strings.Contains(buf.String(), "phase split unavailable") {
					t.Errorf("phase split unavailable on a single-worker replay:\n%s", buf.String())
				}
			})
		}
	}
}
