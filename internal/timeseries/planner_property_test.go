package timeseries

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metric"
)

// The property test drives randomized interleavings of appends and
// retentions against a rollup-tiered store and checks, after every few
// operations and across Dump/Restore crash boundaries, that the planned
// query path is numerically IDENTICAL to the brute-force raw reduction —
// not merely close: the same float64 bits.
//
// Exactness is arranged, not hoped for: samples are integers of small
// magnitude, so every sum either path can form is exact in float64, which
// makes the comparison independent of summation order — the one way the
// planned path (per-window sums merged left to right) differs from the raw
// scan.

const propCadence = 1000 // raw append cadence, ms

var propTierSteps = []int64{4000, 16000}

// propAlignUp rounds x up to a multiple of step (x >= 0).
func propAlignUp(x, step int64) int64 {
	if rem := x % step; rem != 0 {
		return x + step - rem
	}
	return x
}

// propParity compares the planned and raw paths for every aggregation over
// randomized windows of [minFrom, now).
func propParity(t *testing.T, s *Store, ids []metric.ID, r *rand.Rand, minFrom, now int64) {
	t.Helper()
	if now-minFrom < 2*propTierSteps[1] {
		return
	}
	fns := []AggFunc{AggMean, AggSum, AggMin, AggMax, AggCount, AggRate}
	steps := []int64{propTierSteps[0], propTierSteps[1], 3 * propTierSteps[1], 7000}
	for _, id := range ids {
		span := now - minFrom
		from := minFrom + propAlignUp(r.Int63n(span), propTierSteps[1])
		if from >= now {
			from = minFrom
		}
		// to may overshoot the data: the planner must handle the unsealed
		// (or absent) tail identically to the raw scan.
		to := from + 1 + r.Int63n(span+propTierSteps[1])
		for _, fn := range fns {
			for _, step := range steps {
				want, errW := s.Aggregate(id, from, to, step, fn)
				got, errG := s.AggregatePlanned(id, from, to, step, fn)
				if (errW == nil) != (errG == nil) {
					t.Fatalf("%s %v step %d [%d,%d): errors diverge: raw %v planned %v", id.Key(), fn, step, from, to, errW, errG)
				}
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s %v step %d [%d,%d): planned diverges\nraw:     %v\nplanned: %v", id.Key(), fn, step, from, to, want, got)
				}
			}
			wantV, wantN, errW := s.Reduce(id, from, to, fn)
			gotV, gotN, errG := s.ReducePlanned(id, from, to, fn)
			if (errW == nil) != (errG == nil) || wantV != gotV || wantN != gotN {
				t.Fatalf("%s %v [%d,%d): Reduce (%v, %d, %v) vs ReducePlanned (%v, %d, %v)",
					id.Key(), fn, from, to, wantV, wantN, errW, gotV, gotN, errG)
			}
		}
	}
}

func TestPlannerPropertyParity(t *testing.T) {
	var tierPicks uint64
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			opts := []Option{WithRollups(propTierSteps...)}
			s := NewStore(32, opts...)
			ids := []metric.ID{
				{Name: "prop_a", Labels: metric.NewLabels("node", "n0")},
				{Name: "prop_b", Labels: metric.NewLabels("node", "n1")},
			}
			var now, minFrom int64
			for op := 0; op < 80; op++ {
				switch k := r.Intn(12); {
				case k == 9 && now > 0:
					// Tier retention: the planner must fall back to raw for
					// windows a pruned tier no longer covers.
					s.RetainTier(propTierSteps[r.Intn(len(propTierSteps))], r.Int63n(now))
				case k == 10 && now > 0:
					// Raw retention keeps every sample >= cutoff, so parity
					// holds for query windows starting at or after it.
					cutoff := r.Int63n(now)
					s.Retain(cutoff)
					if up := propAlignUp(cutoff, propTierSteps[1]); up > minFrom {
						minFrom = up
					}
				case k == 11 && now > 0:
					// Crash boundary: the restored store must plan and
					// answer exactly like the one it was dumped from.
					restored, err := RestoreStore(32, s.Dump(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					s = restored
				default:
					// A block of 8 integer samples per series keeps now on
					// 8000 ms boundaries.
					for i := 0; i < 8; i++ {
						for _, id := range ids {
							v := float64(r.Intn(101) - 50)
							if err := s.Append(id, metric.Gauge, metric.UnitNone, now, v); err != nil {
								t.Fatal(err)
							}
						}
						now += propCadence
					}
				}
				if r.Intn(3) == 0 {
					propParity(t, s, ids, r, minFrom, now)
				}
			}
			propParity(t, s, ids, r, minFrom, now)
			for _, ts := range s.RollupStats().Tiers {
				tierPicks += ts.Picks
			}
		})
	}
	if tierPicks == 0 {
		t.Fatal("property run never exercised a tier-served plan")
	}
}
