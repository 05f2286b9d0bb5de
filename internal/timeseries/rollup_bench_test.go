package timeseries

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/metric"
)

// --- Rollup tiers and the query planner (PR 6) ---
//
// The headline workload: a 30-day mean-per-hour aggregation over one node's
// 1 Hz power telemetry. The raw path decodes ~2.6M Gorilla samples; the
// planned path reads ~720 sealed hourly windows (8 records each) from the
// 1h tier. `make bench-longwindow` gates the speedup at >= 50x and the
// planned reduction at 0 allocs/op.

const (
	longWindowDays    = 30
	longWindowSamples = longWindowDays*24*3600 + 1 // +1 seals the last hourly window
	longWindowMsBench = int64(longWindowDays) * 24 * 3600 * 1000
)

var (
	longWindowOnce  sync.Once
	longWindowStore *Store
	longWindowID    = metric.ID{Name: "power", Labels: metric.NewLabels("node", "n01")}
)

// longWindowSetup builds the 30-day store exactly once per benchmark binary
// (2.6M appends dominate any single measurement otherwise).
func longWindowSetup(b *testing.B) *Store {
	longWindowOnce.Do(func() {
		s := NewStore(0, WithRollups(TierStep1m, TierStep1h))
		for i := 0; i < longWindowSamples; i++ {
			if err := s.Append(longWindowID, metric.Gauge, metric.UnitWatt, int64(i)*1000, float64(55+i%97)); err != nil {
				b.Fatal(err)
			}
		}
		longWindowStore = s
	})
	return longWindowStore
}

func benchLongWindow(b *testing.B, planned bool) {
	s := longWindowSetup(b)
	agg := s.aggregate
	if planned {
		agg = s.AggregatePlanned
	}
	if pts, err := agg(longWindowID, 0, longWindowMsBench, 3_600_000, AggMean); err != nil || len(pts) != longWindowDays*24 {
		b.Fatalf("warm: %d points, %v", len(pts), err)
	}
	if planned {
		plan := planOf(s, longWindowID, 0, longWindowMsBench, 3_600_000, AggMean)
		if plan.TierStep != TierStep1h {
			b.Fatalf("planner chose tier %d, want 1h", plan.TierStep)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := agg(longWindowID, 0, longWindowMsBench, 3_600_000, AggMean)
		if err != nil || len(pts) != longWindowDays*24 {
			b.Fatalf("aggregate: %d points, %v", len(pts), err)
		}
	}
}

func BenchmarkLongWindowQueryRaw(b *testing.B)     { benchLongWindow(b, false) }
func BenchmarkLongWindowQueryPlanned(b *testing.B) { benchLongWindow(b, true) }

// BenchmarkStorePlannedCursorSweep is the pushdown counterpart: the same
// 30-day window folded to one mean through the planner. Both cursors on the
// planned path are pooled and the merge accumulator lives on the stack, so
// `make bench-longwindow` gates this at 0 allocs/op.
func BenchmarkStorePlannedCursorSweep(b *testing.B) {
	s := longWindowSetup(b)
	ss := s.lookup(longWindowID.Key())
	if ss == nil {
		b.Fatal("series missing")
	}
	if v, n, err := s.reducePlanned(ss, longWindowID, 0, longWindowMsBench, AggMean); err != nil || n != longWindowSamples-1 || v == 0 {
		b.Fatalf("warm: (%v, %d, %v)", v, n, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, n, err := s.reducePlanned(ss, longWindowID, 0, longWindowMsBench, AggMean)
		if err != nil || n != longWindowSamples-1 || v == 0 {
			b.Fatalf("reduce: (%v, %d, %v)", v, n, err)
		}
	}
}

// BenchmarkTierTailReduce is what reading a series' newest data costs: the
// planned mean over its last 10 minutes, which the 1m tier serves but for
// the open minute, which the raw tail does. A tier chunk decodes from its
// start, so the cost follows how many windows the chunk holds before the ones
// asked for: up to 15 at a 10 s cadence, up to 40 at 60 s, where each window
// is one sample (groupWrites). The series end at each of 120 successive
// minutes — every phase of 15- and 40-window tier chunks and of the raw
// chunks — and the loop cycles through them.
func BenchmarkTierTailReduce(b *testing.B) {
	const phases = 120
	id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n0")}
	for _, cadence := range []int64{10_000, 60_000} {
		b.Run(fmt.Sprintf("%ds", cadence/1000), func(b *testing.B) {
			stores := make([]*Store, phases)
			ends := make([]int64, phases)
			for p := range stores {
				s := NewStore(0, WithRollups(TierStep1m, TierStep1h))
				end := int64(6*60+p) * TierStep1m
				for t := int64(0); t < end; t += cadence {
					if err := s.Append(id, metric.Gauge, metric.UnitWatt, t, 300+float64(t/cadence%97)/10); err != nil {
						b.Fatal(err)
					}
				}
				from := end - 10*TierStep1m
				if plan := planOf(s, id, from, end, 0, AggMean); plan.TierStep != TierStep1m || plan.TierTo != end-TierStep1m {
					b.Fatalf("phase %d: plan %+v, want the 1m tier up to the open minute", p, plan)
				}
				stores[p], ends[p] = s, end
			}
			want := int(10 * TierStep1m / cadence)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := i % phases
				if _, n, err := stores[p].ReducePlanned(id, ends[p]-10*TierStep1m, ends[p], AggMean); err != nil || n != want {
					b.Fatalf("phase %d: %d samples, %v", p, n, err)
				}
			}
		})
	}
}
