package main

import (
	"os"
	"testing"

	"repro/bench/gen"
	"repro/bench/report"
)

// TestSmokeEachWorkload runs the whole traced breakdown at 1/100 size:
// every probe, every check, every per-layer metric the contract names.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("opens durable stores and loopback listeners")
	}
	// Scratch goes under the checkout's build dir and the metric names come
	// from BENCHMARK.json, both relative to the checkout root.
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	names, err := report.MetricNames("per_layer")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range gen.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			l := &layers{wl: wl.Scaled(gen.NominalSeconds / 100.0), seed: 1, metrics: map[string]report.Metric{}}
			if err := l.run(); err != nil {
				t.Fatal(err)
			}
			for _, p := range l.problems {
				t.Error(p)
			}
			for _, name := range names {
				if _, ok := l.metrics[name]; !ok {
					t.Errorf("per-layer metric %s was not measured", name)
				}
			}
			// The breakdown must explain the pipeline it timed: what no span
			// covers stays under 15 % of the traced end-to-end cost.
			e2e := l.metrics["trace.end_to_end_ns_per_sample"].Value
			if un := l.metrics["trace.unattributed_ns_per_sample"].Value; un > 0.15*e2e {
				t.Errorf("%.0f of %.0f ns/sample unattributed", un, e2e)
			}
		})
	}
}
