package timeseries

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metric"
)

// TestRawPlanParityArbitraryFloats: a raw plan is tier 0 of the same fold, and
// on it nothing re-associates — every mergeable answer must equal the raw
// reducers' by math.Float64bits on arbitrary floats, -0, ±Inf and NaN
// included. (TestPlannerPropertyParity needs dyadic values because a
// tier-served sum legitimately regroups; the raw plan has no such excuse.)
// One NaN equals another here: which operand's payload NaN+NaN keeps is the
// compiler's choice of instruction operand order (it differs under -race),
// not something either path decides.
func TestRawPlanParityArbitraryFloats(t *testing.T) {
	special := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, tc := range []struct {
		name  string
		opts  []Option
		steps []int64 // bucket steps; none a multiple of a tier step
		align int64   // from is forced off this boundary so reductions plan raw too
	}{
		{"no-tiers", nil, []int64{1, 777, 4000, 16000, 100_000}, 0},
		{"tiers-none-divides", []Option{WithRollups(4000, 16000)}, []int64{1, 777, 7000, 18000}, 4000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(15))
			s := NewStore(32, tc.opts...)
			id := sid("floats", "n0")
			var now int64
			for i := 0; i < 3000; i++ {
				now += 1 + r.Int63n(900)
				v := math.Float64frombits(r.Uint64()) // any bit pattern, NaN payloads included
				switch r.Intn(4) {
				case 0:
					v = special[r.Intn(len(special))]
				case 1:
					v = r.NormFloat64() * 1e3
				}
				if err := s.Append(id, metric.Gauge, metric.UnitNone, now, v); err != nil {
					t.Fatal(err)
				}
			}
			bits := math.Float64bits
			same := func(a, b float64) bool { return bits(a) == bits(b) || (a != a && b != b) }
			for q := 0; q < 60; q++ {
				from := r.Int63n(now)
				if tc.align > 0 && from%tc.align == 0 {
					from++
				}
				to := from + 1 + r.Int63n(now-from+5000)
				for _, fn := range rollupAggFns {
					wantV, wantN, err := s.Reduce(id, from, to, fn)
					if err != nil {
						t.Fatal(err)
					}
					gotV, gotN, err := s.ReducePlanned(id, from, to, fn)
					if err != nil {
						t.Fatal(err)
					}
					if !same(gotV, wantV) || gotN != wantN {
						t.Fatalf("%v [%d,%d): ReducePlanned (%v %016x, %d), Reduce (%v %016x, %d)",
							fn, from, to, gotV, bits(gotV), gotN, wantV, bits(wantV), wantN)
					}
					for _, step := range tc.steps {
						want, err := s.Aggregate(id, from, to, step, fn)
						if err != nil {
							t.Fatal(err)
						}
						got, err := s.AggregatePlanned(id, from, to, step, fn)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("%v step %d [%d,%d): %d buckets, want %d", fn, step, from, to, len(got), len(want))
						}
						for i := range got {
							if got[i].Start != want[i].Start || !same(got[i].Value, want[i].Value) {
								t.Fatalf("%v step %d [%d,%d) bucket %d: {%d %v %016x}, want {%d %v %016x}", fn, step, from, to, i,
									got[i].Start, got[i].Value, bits(got[i].Value), want[i].Start, want[i].Value, bits(want[i].Value))
							}
						}
					}
				}
			}
			st := s.RollupStats()
			for _, ts := range st.Tiers {
				if ts.Picks != 0 {
					t.Fatalf("tier %d served %d queries; every query here must plan raw", ts.Step, ts.Picks)
				}
			}
			if st.RawPlans == 0 {
				t.Fatal("no raw plan counted")
			}
		})
	}
}

// TestBucketedWindowOverflowRefused: bucket starts are from + (T-from)/step*
// step, and T-from wraps once to-from overflows int64 — that used to merge
// buckets into a plausible wrong answer. Every bucketed entry point refuses
// such a window; whole-window reductions do no bucket arithmetic and keep
// working at any width.
func TestBucketedWindowOverflowRefused(t *testing.T) {
	s := NewStore(64, WithRollups(TierStep1m))
	id := sid("power", "n0")
	fillRollupStore(t, s, id, 0, 1000, 500)
	const from, to = math.MinInt64, math.MaxInt64
	for _, fn := range []AggFunc{AggMean, AggP95} {
		if pts, err := s.AggregatePlanned(id, from, to, 60_000, fn); err == nil {
			t.Fatalf("AggregatePlanned(%v) over a wrapped window answered %d buckets", fn, len(pts))
		}
		if pts, err := s.Aggregate(id, from, to, 60_000, fn); err == nil {
			t.Fatalf("Aggregate(%v) over a wrapped window answered %d buckets", fn, len(pts))
		}
	}
	if pp, _, err := s.AggregatePartials(id, from, to, 60_000); err == nil {
		t.Fatalf("AggregatePartials over a wrapped window answered %d buckets", len(pp))
	}
	// The widest window that does not wrap still buckets.
	if pts, err := s.AggregatePlanned(id, -1, math.MaxInt64-1, 60_000, AggCount); err != nil || len(pts) != 9 {
		t.Fatalf("widest legal window: %d buckets, %v", len(pts), err)
	}
	for _, w := range [][2]int64{{0, 1 << 62}, {from, to}} {
		for _, fn := range []AggFunc{AggSum, AggP95} {
			wantV, wantN, err := s.Reduce(id, w[0], w[1], fn)
			if err != nil {
				t.Fatal(err)
			}
			gotV, gotN, err := s.ReducePlanned(id, w[0], w[1], fn)
			if err != nil || gotV != wantV || gotN != wantN || gotN != 500 {
				t.Fatalf("ReducePlanned(%v) over [%d,%d) = (%v, %d, %v), want (%v, %d)", fn, w[0], w[1], gotV, gotN, err, wantV, wantN)
			}
		}
	}
}
