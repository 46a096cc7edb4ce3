package main

import (
	"encoding/json"
	"math"
	"testing"
)

// TestWorkloadsAtTinySize runs every workload at a tiny cluster size, untraced
// and traced, and checks that the correctness oracle passes and that every
// metric the benchmark promises prints with its unit.
//
//	cd rapidbench && go test -count=1 .
func TestWorkloadsAtTinySize(t *testing.T) {
	for _, w := range workloads {
		w.N = 20
		if w.Transport == "tcp" {
			w.N = 5
		}
		for _, traced := range []bool{false, true} {
			names := endToEndNames
			if traced {
				names = perLayerNames
			}
			res, rep, rec := runOne(w, 7, 3, traced, t.TempDir())
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d, violations: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, rec.Violations)
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(names))
			}
			for _, name := range names {
				m, ok := res.Metrics[name]
				// End-to-end metrics are never 0; per-layer counts may be.
				if !ok || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (!traced && m.Value == 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, name, m, ok)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%v: result does not encode: %v", w.Name, traced, err)
			}
			if rep.metrics["failed_pct"].Unit != "%" {
				t.Errorf("%s traced=%v: failed_pct missing from the report", w.Name, traced)
			}
		}
	}
}
