package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
)

// counts are the traced run's exact quantities. For a given workload and
// seed they are a property of the inputs and the algorithm, not of the
// machine, so they must repeat exactly between runs; when one moves, the
// workload changed (or the algorithm did), and a speed comparison across
// that change compares different work.
type counts struct {
	Ops            int     `json:"ops"`
	Rounds         int64   `json:"network.rounds"`
	Messages       int64   `json:"network.messages"`
	Bits           int64   `json:"network.bits"`
	MaxSeqs        int     `json:"core.max_seqs"`
	HitRatio       float64 `json:"corestore.hit_ratio"`
	EvictionsPerOp float64 `json:"corestore.evictions_per_op"`
}

// checkCounts compares c with the committed record for the same workload
// and seed (testdata/counts) and with the record an earlier run in this
// checkout left, then leaves its own record for the next run. It returns
// report lines; a difference is reported as a workload change.
func checkCounts(cfg config, c counts) []string {
	name := fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)
	var lines []string
	compared := false
	for _, ref := range []struct{ label, path string }{
		{"committed record", filepath.Join(cfg.dir, "testdata", "counts", name)},
		{"earlier run", filepath.Join(cfg.out, "counts", name)},
	} {
		b, err := os.ReadFile(ref.path)
		if err != nil {
			continue
		}
		compared = true
		var want counts
		if err := json.Unmarshal(b, &want); err != nil {
			lines = append(lines, fmt.Sprintf("exact counts: unreadable %s %s: %v", ref.label, ref.path, err))
			continue
		}
		if diff := diffCounts(want, c); diff != "" {
			lines = append(lines, fmt.Sprintf("exact counts: WORKLOAD CHANGE vs %s (%s): %s", ref.label, ref.path, diff))
		} else {
			lines = append(lines, fmt.Sprintf("exact counts: match the %s (%s)", ref.label, ref.path))
		}
	}
	if !compared {
		lines = append(lines, "exact counts: no earlier record for this workload and seed")
	}
	path := filepath.Join(cfg.out, "counts", name)
	b, _ := json.MarshalIndent(c, "", "  ")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
		if err != nil {
			lines = append(lines, "exact counts: cannot record: "+err.Error())
		}
	}
	compact, _ := json.Marshal(c)
	return append(lines, "exact counts: "+string(compact))
}

// diffCounts lists the fields that differ, as "name a -> b".
func diffCounts(a, b counts) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	out := ""
	for i := 0; i < va.NumField(); i++ {
		if x, y := va.Field(i).Interface(), vb.Field(i).Interface(); x != y {
			if out != "" {
				out += ", "
			}
			out += fmt.Sprintf("%s %v -> %v", va.Type().Field(i).Tag.Get("json"), x, y)
		}
	}
	return out
}
