package main

import (
	"os"
	"testing"

	"repro/bench/gen"
	"repro/bench/report"
)

// TestSmokeEachWorkload runs every workload at 1/100 size against a freshly
// built odad: every phase, every correctness check, every end-to-end metric
// the contract names.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs odad")
	}
	// The harness builds ./cmd/odad and reads BENCHMARK.json from the
	// checkout root.
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	names, err := report.MetricNames("end_to_end")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range gen.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			h, err := newHarness()
			if err != nil {
				t.Fatal(err)
			}
			defer h.close()
			r := &run{
				h: h, sp: wl.Scaled(gen.NominalSeconds / 100.0), seed: 1,
				ops: map[string][2]int{}, metrics: map[string]report.Metric{}, diagnostics: map[string]report.Metric{},
			}
			if err := r.execute(); err != nil {
				for _, n := range r.nodes {
					t.Log(n.logTail())
				}
				t.Fatal(err)
			}
			for _, p := range r.problems {
				t.Error(p)
			}
			for kind, c := range r.ops {
				if c[1] != 0 {
					t.Errorf("%d of %d %s failed", c[1], c[0], kind)
				}
			}
			for _, name := range names {
				if m, ok := r.metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("metric %s = %v (measured: %v), want > 0", name, m.Value, ok)
				}
			}
		})
	}
}
