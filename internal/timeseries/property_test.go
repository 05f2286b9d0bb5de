package timeseries

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metric"
)

// propertyIDs is the small fixed series universe the random interleavings
// draw from — few enough that every op mix hits every series.
func propertyIDs() []metric.ID {
	return []metric.ID{
		{Name: "node_power_watts", Labels: metric.NewLabels("node", "n00")},
		{Name: "node_power_watts", Labels: metric.NewLabels("node", "n01")},
		{Name: "facility_pue"},
	}
}

// TestStoreInvariantsProperty drives random interleavings of Append,
// AppendBatch and Retain through a store (random chunk sizes,
// occasional out-of-order and duplicate timestamps) and asserts the query
// invariants every analytics tier relies on after each operation:
//
//   - Query results are strictly time-ordered — sorted and deduplicated.
//   - Windowed queries never leak samples outside [from, to).
//   - The Latest cache always agrees with the newest stored sample.
//   - NumSamples equals the sum of per-series query lengths.
//   - Immediately after Retain(cutoff), a series is either empty or its
//     newest sample is at or past the cutoff (chunk-granularity retention
//     can keep older samples, but never leave only-stale series behind).
//
// Mirrors the style of internal/scheduler/property_test.go.
func TestStoreInvariantsProperty(t *testing.T) {
	ids := propertyIDs()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(2 + rng.Intn(40))
		clock := make([]int64, len(ids)) // per-series high-water timestamp

		checkSeries := func() bool {
			total := 0
			for _, id := range ids {
				samples, err := s.QueryAll(id)
				if err != nil {
					continue // series not created yet
				}
				for i := 1; i < len(samples); i++ {
					if samples[i].T <= samples[i-1].T {
						t.Logf("%s: not strictly sorted at %d", id.Key(), i)
						return false
					}
				}
				if len(samples) > 0 {
					last, ok := s.Latest(id)
					if !ok || last != samples[len(samples)-1] {
						t.Logf("%s: Latest %+v != tail %+v", id.Key(), last, samples[len(samples)-1])
						return false
					}
				}
				total += len(samples)
			}
			if got := s.NumSamples(); got != total {
				t.Logf("NumSamples %d != sum of queries %d", got, total)
				return false
			}
			return true
		}

		for op := 0; op < 150; op++ {
			si := rng.Intn(len(ids))
			id := ids[si]
			switch rng.Intn(3) {
			case 0: // single append; ~1 in 5 is stale/duplicate and must be rejected
				ts := clock[si] + int64(rng.Intn(5000)) - 800
				_ = s.Append(id, metric.Gauge, metric.UnitWatt, ts, rng.NormFloat64()*100)
				if ts > clock[si] {
					clock[si] = ts
				}
			case 1: // batch append with occasional duplicate timestamps inside
				n := 1 + rng.Intn(25)
				entries := make([]BatchEntry, 0, n)
				ts := clock[si]
				for i := 0; i < n; i++ {
					if rng.Intn(6) > 0 { // sometimes reuse ts: duplicate -> rejected
						ts += 1 + int64(rng.Intn(2000))
					}
					entries = append(entries, BatchEntry{
						ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, T: ts, V: rng.Float64(),
					})
				}
				_, _ = s.AppendBatch(entries)
				if ts > clock[si] {
					clock[si] = ts
				}
			case 2: // retain up to a random cutoff
				cutoff := clock[si] - int64(rng.Intn(200_000)) + 50_000
				s.Retain(cutoff)
				for qi, qid := range ids {
					samples, err := s.QueryAll(qid)
					if err != nil || len(samples) == 0 {
						if err == nil {
							// Fully retained away: the next append may
							// restart the series at any timestamp.
							clock[qi] = 0
						}
						continue
					}
					if samples[len(samples)-1].T < cutoff {
						t.Logf("%s: newest sample %d survived cutoff %d", qid.Key(), samples[len(samples)-1].T, cutoff)
						return false
					}
				}
			}
			if !checkSeries() {
				return false
			}
		}

		// Windowed queries are confined to their bounds.
		for _, id := range ids {
			all, err := s.QueryAll(id)
			if err != nil || len(all) == 0 {
				continue
			}
			lo, hi := all[0].T, all[len(all)-1].T
			from := lo + (hi-lo)/4
			to := lo + 3*(hi-lo)/4
			got, err := s.Query(id, from, to)
			if err != nil {
				return false
			}
			for _, sm := range got {
				if sm.T < from || sm.T >= to {
					t.Logf("%s: window [%d,%d) leaked %d", id.Key(), from, to, sm.T)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreAppendModelProperty compares append-only stores against a plain
// slice model exactly: with only in-order appends, Query must reproduce the
// model bit-for-bit across random chunk-size boundaries.
func TestStoreAppendModelProperty(t *testing.T) {
	id := metric.ID{Name: "m", Labels: metric.NewLabels("node", "n0")}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(1 + rng.Intn(30))
		var model []metric.Sample
		ts := int64(rng.Intn(1_000_000))
		for i := 0; i < 300; i++ {
			ts += 1 + int64(rng.Intn(100_000))
			v := rng.NormFloat64() * 1e6
			if err := s.Append(id, metric.Gauge, metric.UnitWatt, ts, v); err != nil {
				return false
			}
			model = append(model, metric.Sample{T: ts, V: v})
		}
		got, err := s.QueryAll(id)
		if err != nil || len(got) != len(model) {
			return false
		}
		for i := range model {
			if got[i] != model[i] {
				return false
			}
		}
		// A random window agrees with the filtered model.
		from := model[rng.Intn(len(model))].T
		to := from + int64(rng.Intn(2_000_000))
		got, err = s.Query(id, from, to)
		if err != nil {
			return false
		}
		var want []metric.Sample
		for _, sm := range model {
			if sm.T >= from && sm.T < to {
				want = append(want, sm)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// legacyWindow is the pre-cursor oracle: materialize [from, to) by walking
// every chunk iterator directly under the series lock, with none of the
// cursor or pooling machinery in the read path.
func legacyWindow(t *testing.T, s *Store, id metric.ID, from, to int64) []metric.Sample {
	t.Helper()
	ss := s.lookup(id.Key())
	if ss == nil {
		return nil
	}
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	var out []metric.Sample
	for _, c := range ss.chunks {
		it := c.Iter()
		for it.Next() {
			if sm := it.At(); sm.T >= from && sm.T < to {
				out = append(out, sm)
			}
		}
		if err := it.Err(); err != nil {
			t.Fatalf("%s: chunk iter: %v", id.Key(), err)
		}
	}
	return out
}

// legacyAggregate reimplements the pre-pushdown Aggregate over a
// materialized window: group samples into [base+k*step, base+(k+1)*step)
// buckets, then applyAgg (or the rate slope) on each bucket's values.
func legacyAggregate(samples []metric.Sample, base, step int64, fn AggFunc) ([]AggPoint, error) {
	var out []AggPoint
	for i := 0; i < len(samples); {
		bucket := (samples[i].T - base) / step
		end := base + (bucket+1)*step
		j := i
		var vals []float64
		for j < len(samples) && samples[j].T < end {
			vals = append(vals, samples[j].V)
			j++
		}
		var v float64
		var err error
		if fn == AggRate {
			v = rateOf(samples[i], samples[j-1], len(vals))
		} else if v, err = applyAgg(vals, fn); err != nil {
			return nil, err
		}
		out = append(out, AggPoint{Start: base + bucket*step, Value: v})
		i = j
	}
	return out, nil
}

// TestCursorPushdownEquivalenceProperty drives random stores (random chunk
// sizes, windows and steps) and checks every streaming read
// path — Query, Each, Reduce, Aggregate, SeriesValues and Scan — bit-for-bit
// against the legacy oracle that materializes chunks directly.
func TestCursorPushdownEquivalenceProperty(t *testing.T) {
	ids := propertyIDs()
	aggs := []AggFunc{AggMean, AggSum, AggMin, AggMax, AggCount, AggStd, AggP95, AggRate}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(2 + rng.Intn(40))
		clock := make([]int64, len(ids))
		for op := 0; op < 30; op++ {
			si := rng.Intn(len(ids))
			id := ids[si]
			n := 1 + rng.Intn(30)
			entries := make([]BatchEntry, 0, n)
			ts := clock[si]
			for i := 0; i < n; i++ {
				ts += 1 + int64(rng.Intn(3000))
				entries = append(entries, BatchEntry{
					ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, T: ts, V: rng.NormFloat64() * 50,
				})
			}
			if _, err := s.AppendBatch(entries); err != nil {
				t.Logf("AppendBatch: %v", err)
				return false
			}
			clock[si] = ts
		}

		sameSamples := func(got, want []metric.Sample) bool {
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}

		for si, id := range ids {
			for w := 0; w < 6; w++ {
				var from, to int64
				switch w {
				case 0: // full history
					from, to = 0, clock[si]+1
				case 1: // empty (inverted) window
					from, to = clock[si], clock[si]-1
				case 2: // past-the-end window
					from, to = clock[si]+10, clock[si]+20
				default: // random partial window
					from = int64(rng.Intn(int(clock[si] + 2)))
					to = from + int64(rng.Intn(int(clock[si]+2)))
				}
				want := legacyWindow(t, s, id, from, to)

				got, err := s.Query(id, from, to)
				if err != nil || !sameSamples(got, want) {
					t.Logf("%s [%d,%d): Query %d samples (err %v), oracle %d", id.Key(), from, to, len(got), err, len(want))
					return false
				}

				var eached []metric.Sample
				if err := s.Each(id, from, to, func(sm metric.Sample) bool {
					eached = append(eached, sm)
					return true
				}); err != nil || !sameSamples(eached, want) {
					t.Logf("%s [%d,%d): Each diverges from oracle (err %v)", id.Key(), from, to, err)
					return false
				}

				vals, err := s.SeriesValues(id, from, to)
				if err != nil || len(vals) != len(want) {
					t.Logf("%s [%d,%d): SeriesValues %d (err %v), oracle %d", id.Key(), from, to, len(vals), err, len(want))
					return false
				}
				for i := range want {
					if vals[i] != want[i].V {
						return false
					}
				}

				wantVals := make([]float64, len(want))
				for i, sm := range want {
					wantVals[i] = sm.V
				}
				for _, fn := range aggs {
					gotV, gotN, redErr := s.Reduce(id, from, to, fn)
					var wantV float64
					var wantErr error
					if fn == AggRate {
						if len(want) > 0 {
							wantV = rateOf(want[0], want[len(want)-1], len(want))
						}
					} else {
						wantV, wantErr = applyAgg(wantVals, fn)
					}
					if len(want) == 0 {
						// Empty windows: Reduce reports n == 0 and only the
						// quantile aggregation errors (as applyAgg does).
						if gotN != 0 || (redErr == nil) != (wantErr == nil || fn == AggRate) {
							t.Logf("%s [%d,%d) %s: empty Reduce = (%v, %d, %v)", id.Key(), from, to, fn, gotV, gotN, redErr)
							return false
						}
						continue
					}
					if redErr != nil || gotN != len(want) || gotV != wantV {
						t.Logf("%s [%d,%d) %s: Reduce = (%v, %d, %v), oracle %v over %d",
							id.Key(), from, to, fn, gotV, gotN, redErr, wantV, len(want))
						return false
					}
				}

				step := int64(1+rng.Intn(8)) * 700
				fn := aggs[rng.Intn(len(aggs))]
				gotAgg, err := s.Aggregate(id, from, to, step, fn)
				if err != nil {
					t.Logf("%s: Aggregate: %v", id.Key(), err)
					return false
				}
				wantAgg, err := legacyAggregate(want, from, step, fn)
				if err != nil || len(gotAgg) != len(wantAgg) {
					t.Logf("%s [%d,%d) %s/%d: Aggregate %d buckets, oracle %d (err %v)",
						id.Key(), from, to, fn, step, len(gotAgg), len(wantAgg), err)
					return false
				}
				for i := range wantAgg {
					if gotAgg[i] != wantAgg[i] {
						t.Logf("%s %s bucket %d: %+v vs oracle %+v", id.Key(), fn, i, gotAgg[i], wantAgg[i])
						return false
					}
				}
			}
		}

		// Scan matches per-series oracles, including an unknown id in the
		// batch.
		scanIDs := append(append([]metric.ID{}, ids...), metric.ID{Name: "ghost"})
		rows := make([][]metric.Sample, len(scanIDs))
		err := s.Scan(scanIDs, 0, 1<<62, func(i int, cur *Cursor) error {
			for cur.Next() {
				rows[i] = append(rows[i], cur.At())
			}
			return cur.Err()
		})
		if err != nil {
			t.Logf("Scan: %v", err)
			return false
		}
		for i, id := range ids {
			if !sameSamples(rows[i], legacyWindow(t, s, id, 0, 1<<62)) {
				t.Logf("Scan row %d diverges from oracle", i)
				return false
			}
		}
		if rows[len(scanIDs)-1] != nil {
			t.Log("Scan visited an unknown series")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
