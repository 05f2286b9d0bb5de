package timeseries

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/metric"
)

// TestSeriesValuesStepIsAggregatePlannedMean: a bucketed SeriesValues folds
// straight into its slice, and must still be AggregatePlanned(…, AggMean)'s
// values, bit for bit and in order, on a raw plan, a tier plan and a tier
// prefix with a raw tail, over a series with gaps whose empty buckets are
// omitted.
func TestSeriesValuesStepIsAggregatePlannedMean(t *testing.T) {
	s := NewStore(32, WithRollups(TierStep1m))
	id := sid("temp", "n0")
	// 10 s cadence for 3 h from t0, with a 7-minute and a 40-minute gap;
	// irrational-ish values so a regrouped sum would show.
	const t0 = int64(2 * TierStep1h)
	var last int64
	for i := 0; i < 3*360; i++ {
		ts := t0 + int64(i)*10_000
		if off := ts - t0; (off >= 20*TierStep1m && off < 27*TierStep1m) || (off >= 90*TierStep1m && off < 130*TierStep1m) {
			continue
		}
		if err := s.Append(id, metric.Gauge, metric.UnitCelsius, ts, 40+math.Sin(float64(i)/7)*3.3); err != nil {
			t.Fatal(err)
		}
		last = ts
	}
	for _, tc := range []struct {
		name     string
		from, to int64
		step     int64
		tier     int64 // the plan's tier step, 0 for raw
		tail     bool  // the plan ends its tier prefix before to
	}{
		{"raw", t0 + 1, t0 + 3*TierStep1h, TierStep1m, 0, false},
		{"tier", t0, t0 + 2*TierStep1h, 5 * TierStep1m, TierStep1m, false},
		{"tier+tail", t0, last + 1, TierStep1m, TierStep1m, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := planOf(s, id, tc.from, tc.to, tc.step, AggMean)
			if plan.TierStep != tc.tier || (plan.TierStep != 0 && plan.TierTo < tc.to) != tc.tail {
				t.Fatalf("plan %+v over [%d, %d), want tier %d, tail %v", plan, tc.from, tc.to, tc.tier, tc.tail)
			}
			want, err := s.AggregatePlanned(id, tc.from, tc.to, tc.step, AggMean)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.SeriesValues(id, tc.from, tc.to, tc.step)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("SeriesValues gave %d values, AggregatePlanned %d buckets", len(got), len(want))
			}
			if span := (tc.to - tc.from + tc.step - 1) / tc.step; int64(len(got)) >= span {
				t.Fatalf("%d values over %d buckets: the gaps' empty buckets were not omitted", len(got), span)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i].Value) {
					t.Fatalf("value %d = %v, AggregatePlanned's bucket at %d = %v", i, got[i], want[i].Start, want[i].Value)
				}
			}
		})
	}
	// A window inside a gap answers no values and no error.
	if got, err := s.SeriesValues(id, t0+95*TierStep1m, t0+125*TierStep1m, TierStep1m); err != nil || len(got) != 0 {
		t.Fatalf("SeriesValues over a gap = %v, %v; want no values", got, err)
	}
}

// TestSeriesValuesSparseWindowReservesWhatItReads: a bucketed read sizes its
// slice by what the plan's cursors hold, never by the window's span alone —
// [0, 2^40) at a 1 ms step is 2^40 buckets, and a series of three samples
// must answer three values for a few hundred bytes.
func TestSeriesValuesSparseWindowReservesWhatItReads(t *testing.T) {
	s := NewStore(32, WithRollups(TierStep1m))
	id := sid("sparse", "n0")
	for i, ts := range []int64{5_000, 7 * TierStep1h, 9 * TierStep1h} {
		if err := s.Append(id, metric.Gauge, metric.UnitNone, ts, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	const to = int64(1) << 40
	read := func() []float64 {
		vals, err := s.SeriesValues(id, 0, to, 1)
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	if got := read(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("SeriesValues = %v, want [0 1 2]", got)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4096 {
		t.Fatalf("a 3-sample read over 2^40 one-millisecond buckets allocates %d B, want < 4096", per)
	}
}
