package timeseries

import (
	"reflect"
	"testing"

	"repro/internal/metric"
)

// rollupAggFns are the aggregations the planner can serve from tiers.
var rollupAggFns = []AggFunc{AggMean, AggSum, AggMin, AggMax, AggCount, AggRate}

// planOf is the planner's decision for one query (the unexported planner on
// the resolved series; a decision-table case counts as a plan, as it always
// has).
func planOf(s *Store, id metric.ID, from, to, step int64, fn AggFunc) QueryPlan {
	plan, _ := s.plan(s.lookup(id.Key()), from, to, step, fn)
	return plan
}

// fillRollupStore appends n integer-valued samples at the given cadence
// starting at t0, so sums are exact in float64 and planned/raw results can
// be compared with ==.
func fillRollupStore(t *testing.T, s *Store, id metric.ID, t0, cadence int64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		v := float64((i*7)%101 - 50)
		if err := s.Append(id, metric.Gauge, metric.UnitWatt, t0+int64(i)*cadence, v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRollupPlannedParity(t *testing.T) {
	s := NewStore(64, WithRollups(TierStep1m, TierStep1h))
	id := sid("power", "n0")
	// 3h of 10s-cadence data starting exactly on an hour boundary.
	const t0 = int64(7 * TierStep1h)
	fillRollupStore(t, s, id, t0, 10_000, 3*360+5)

	for _, tc := range []struct {
		name     string
		from, to int64
		step     int64
		tier     int64 // expected plan tier
	}{
		{"hour-step", t0, t0 + 3*TierStep1h, TierStep1h, TierStep1h},
		{"two-hour-step", t0, t0 + 4*TierStep1h, 2 * TierStep1h, TierStep1h},
		{"minute-step", t0, t0 + 2*TierStep1h, TierStep1m, TierStep1m},
		{"five-minute-step", t0 + TierStep1h, t0 + 3*TierStep1h, 5 * TierStep1m, TierStep1m},
		{"unaligned-from", t0 + 1, t0 + TierStep1h, TierStep1h, 0},
		{"odd-step", t0, t0 + TierStep1h, 90_000, 0},
		{"partial-tail", t0, t0 + 3*TierStep1h + 55_000, TierStep1m, TierStep1m},
	} {
		for _, fn := range rollupAggFns {
			plan := planOf(s, id, tc.from, tc.to, tc.step, fn)
			if plan.TierStep != tc.tier {
				t.Fatalf("%s/%v: plan tier = %d, want %d", tc.name, fn, plan.TierStep, tc.tier)
			}
			want, err := s.aggregate(id, tc.from, tc.to, tc.step, fn)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.AggregatePlanned(id, tc.from, tc.to, tc.step, fn)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v: planned aggregate diverged\n got %v\nwant %v", tc.name, fn, got, want)
			}
		}
	}
	// Std and P95 need the raw distribution and must always plan raw.
	for _, fn := range []AggFunc{AggStd, AggP95} {
		if plan := planOf(s, id, t0, t0+TierStep1h, TierStep1h, fn); plan.TierStep != 0 {
			t.Fatalf("%v planned tier %d, want raw", fn, plan.TierStep)
		}
	}
	st := s.RollupStats()
	if st.Folds == 0 || st.Seals == 0 || st.RawPlans == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
	picked := uint64(0)
	for _, ts := range st.Tiers {
		if ts.Series != 1 {
			t.Fatalf("tier %d series = %d, want 1", ts.Step, ts.Series)
		}
		picked += ts.Picks
	}
	if picked == 0 {
		t.Fatal("no planner decision hit a tier")
	}
}

func TestReduceAndSeriesValuesPlannedParity(t *testing.T) {
	s := NewStore(32, WithRollups(TierStep1m))
	id := sid("temp", "n1")
	const t0 = int64(0)
	fillRollupStore(t, s, id, t0, 5_000, 2000) // ~2.7h at 5s cadence

	to := t0 + 9_500_000
	for _, fn := range rollupAggFns {
		wantV, wantN, err := s.Reduce(id, t0, to, fn)
		if err != nil {
			t.Fatal(err)
		}
		gotV, gotN, err := s.ReducePlanned(id, t0, to, fn)
		if err != nil {
			t.Fatal(err)
		}
		if gotV != wantV || gotN != wantN {
			t.Fatalf("%v: ReducePlanned = (%v, %d), want (%v, %d)", fn, gotV, gotN, wantV, wantN)
		}
	}
	if plan := planOf(s, id, t0, to, 0, AggMean); plan.TierStep != TierStep1m {
		t.Fatalf("reduce plan tier = %d, want %d", plan.TierStep, int64(TierStep1m))
	}

	want, err := s.aggregate(id, t0, to, 10*TierStep1m, AggMean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SeriesValues(id, t0, to, 10*TierStep1m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("planned SeriesValues returned %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i].Value {
			t.Fatalf("value %d = %v, want %v", i, got[i], want[i].Value)
		}
	}
}

func TestRetainTierIndependent(t *testing.T) {
	s := NewStore(32, WithRollups(TierStep1m, TierStep1h))
	id := sid("power", "n0")
	fillRollupStore(t, s, id, 0, 10_000, 3*360) // 3h

	rawBefore, err := collect(s, id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	cutoff := int64(2 * TierStep1h)
	dropped := s.RetainTier(TierStep1m, cutoff)
	if dropped == 0 {
		t.Fatal("RetainTier dropped nothing")
	}
	// Raw data and the hourly tier are untouched.
	rawAfter, err := collect(s, id, 0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rawAfter, rawBefore) {
		t.Fatal("RetainTier touched raw data")
	}
	if plan := planOf(s, id, 0, 3*TierStep1h, TierStep1h, AggMean); plan.TierStep != TierStep1h {
		t.Fatalf("hourly tier no longer serves from 0: plan tier %d", plan.TierStep)
	}
	// The minutely tier lost its prefix, so a query from 0 at minute step
	// must fall back, while a query starting past the cutoff can still use it.
	if plan := planOf(s, id, 0, 3*TierStep1h, TierStep1m, AggMean); plan.TierStep == TierStep1m {
		t.Fatal("minutely tier claimed a range it no longer covers")
	}
	from := cutoff // the whole-chunk drops stop exactly at the cutoff here
	plan := planOf(s, id, from, 3*TierStep1h, TierStep1m, AggMean)
	if plan.TierStep != TierStep1m {
		t.Fatalf("minutely tier unusable after RetainTier: plan tier %d", plan.TierStep)
	}
	want, err := s.aggregate(id, from, 3*TierStep1h, TierStep1m, AggMean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.AggregatePlanned(id, from, 3*TierStep1h, TierStep1m, AggMean)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("planned aggregate diverged after RetainTier")
	}
}

func TestDumpRestoreCarriesTiers(t *testing.T) {
	s := NewStore(32, WithRollups(TierStep1m, TierStep1h))
	ids := []metric.ID{sid("power", "n0"), sid("temp", "n1")}
	for i, id := range ids {
		fillRollupStore(t, s, id, int64(i)*1000, 7_000, 1500)
	}
	dump := s.Dump()
	hasTiers := false
	for _, sd := range dump {
		if len(sd.Tiers) == 2 {
			hasTiers = true
		}
	}
	if !hasTiers {
		t.Fatal("dump carries no tiers")
	}
	re, err := RestoreStore(s.ChunkSize(), dump, WithRollups(TierStep1m, TierStep1h))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !reflect.DeepEqual(re.Dump(), dump) {
		t.Fatal("restored dump diverged (tiers not byte-identical)")
	}
	// Folding resumes exactly where the dumped store stopped: append the
	// same continuation to both and the dumps must stay identical.
	for i, id := range ids {
		for j := 0; j < 700; j++ {
			ts := int64(i)*1000 + int64(1500+j)*7_000
			v := float64(j % 13)
			if err := s.Append(id, metric.Gauge, metric.UnitWatt, ts, v); err != nil {
				t.Fatal(err)
			}
			if err := re.Append(id, metric.Gauge, metric.UnitWatt, ts, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(re.Dump(), s.Dump()) {
		t.Fatal("folding diverged after restore")
	}
	// Restoring without the rollup option still carries the dumped tiers.
	re2, err := RestoreStore(s.ChunkSize(), dump)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re2.Dump(), dump) {
		t.Fatal("optionless restore dropped tiers")
	}
}

func TestRestoreRejectsCorruptTierChunk(t *testing.T) {
	s := NewStore(32, WithRollups(TierStep1m))
	id := sid("power", "n0")
	fillRollupStore(t, s, id, 0, 10_000, 800)
	dump := s.Dump()
	if len(dump[0].Tiers) == 0 || len(dump[0].Tiers[0].Chunks) == 0 {
		t.Fatal("no sealed tier chunks to corrupt")
	}
	dump[0].Tiers[0].Chunks[0].Data[3] ^= 0x20
	if _, err := RestoreStore(s.ChunkSize(), dump); err == nil {
		t.Fatal("RestoreStore accepted a corrupted tier bitstream")
	}
}

// TestRollupSurvivesRawRetention: retiring raw data must not break planned
// queries over the sealed rollup history.
func TestRollupSurvivesRawRetention(t *testing.T) {
	s := NewStore(32, WithRollups(TierStep1m))
	id := sid("power", "n0")
	fillRollupStore(t, s, id, 0, 10_000, 2*360) // 2h

	plan := planOf(s, id, 0, 2*TierStep1h, TierStep1m, AggSum)
	if plan.TierStep != TierStep1m {
		t.Fatalf("plan tier = %d, want %d", plan.TierStep, int64(TierStep1m))
	}
	// Compare over the sealed prefix only: the unsealed tail lives in raw
	// samples, which this test is about to retire.
	from, to := int64(0), plan.TierTo
	want, err := s.AggregatePlanned(id, from, to, TierStep1m, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if dropped := s.Retain(2 * TierStep1h); dropped == 0 {
		t.Fatal("Retain dropped no raw chunks")
	}
	got, err := s.AggregatePlanned(id, from, to, TierStep1m, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rollup query diverged after raw retention")
	}
	// The raw scan over the same window is empty now, the rollups are not.
	raw, err := s.aggregate(id, from, to, TierStep1m, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 {
		t.Fatal("raw data survived Retain")
	}
	if len(got) == 0 {
		t.Fatal("rollup history lost with raw retention")
	}
}

// TestTierChunkCap: a tier chunk holds as many records as its stream writes
// up to the store's chunk size — a window of one sample writes three (its
// count, sum and first offset), every other window its whole group of eight —
// and at least one window whatever the size. A window opens a new chunk only
// where it would not fit the open one, so every chunk but the last is full —
// its successor's first window would have overflowed it — and was trimmed to
// its exact length when that successor opened.
func TestTierChunkCap(t *testing.T) {
	for _, tc := range []struct{ size, whole, single int }{
		{1, 1, 1}, {7, 1, 2}, {8, 1, 2}, {9, 1, 3}, {64, 8, 21}, {100, 12, 33}, {120, 15, 40},
	} {
		for _, shape := range []string{"whole", "single", "mixed"} {
			s := NewStore(tc.size, WithRollups(TierStep1m))
			id := metric.ID{Name: "power"}
			for w := int64(0); w < 200; w++ {
				offs := []int64{0, 10_000, 20_000, 30_000, 40_000, 50_000}
				switch {
				case shape == "single", shape == "mixed" && w%2 == 0:
					offs = offs[:1]
				case shape == "mixed":
					offs = offs[:2]
				}
				for _, off := range offs {
					if err := s.Append(id, metric.Gauge, metric.UnitWatt, w*TierStep1m+off, float64(w%7)); err != nil {
						t.Fatal(err)
					}
				}
			}
			chunks := s.lookup(id.Key()).tiers[0].chunks
			var written []int
			var firsts []int // what each chunk's first window writes
			for _, c := range chunks {
				if !c.oneSample {
					t.Fatalf("size %d %s: a tier chunk outside the one-sample window layout", tc.size, shape)
				}
				n, first := 0, 0
				it := ChunkIter{}
				it.reset(c.w.bytes(), c.Count(), true, c.dec, c.oneSample)
				for i := 0; it.Next(); i++ {
					if i%rollupStride != colCount {
						continue
					}
					w := rollupStride
					if it.At().V == 1 {
						w = 3
					}
					if i == 0 {
						first = w
					}
					n += w
				}
				written, firsts = append(written, n), append(firsts, first)
			}
			for i, c := range chunks[:len(chunks)-1] {
				if written[i] > tc.size && c.Count() > rollupStride {
					t.Fatalf("size %d %s: chunk %d writes %d records", tc.size, shape, i, written[i])
				}
				if cap(c.w.buf) != len(c.w.buf) {
					t.Fatalf("size %d %s: chunk %d sealed with %d bytes of slack", tc.size, shape, i, cap(c.w.buf)-len(c.w.buf))
				}
				if written[i]+firsts[i+1] <= tc.size {
					t.Fatalf("size %d %s: chunk %d closed at %d written records, with room for the next window's %d", tc.size, shape, i, written[i], firsts[i+1])
				}
				want := map[string]int{"whole": tc.whole, "single": tc.single}[shape]
				if got := c.Count() / rollupStride; want != 0 && got != want {
					t.Fatalf("size %d %s: chunk %d holds %d windows, want %d", tc.size, shape, i, got, want)
				}
			}
		}
	}
	if floorDiv(-1, 60) != -1 || floorDiv(60, 60) != 1 || floorDiv(-60, 60) != -1 {
		t.Fatal("floorDiv broken")
	}
	if floorMod(-1, 60) != 59 || floorMod(61, 60) != 1 {
		t.Fatal("floorMod broken")
	}
}
