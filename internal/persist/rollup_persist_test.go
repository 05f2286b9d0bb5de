package persist

import (
	"reflect"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
	"repro/internal/tsmodel"
)

// TestDurableRollupLifecycle drives a rollup-enabled durable store through
// appends, a mid-stream checkpoint, per-tier retention and a crash, and
// asserts recovery lands on a byte-identical store — sealed tier chunks,
// open accumulators and retention cuts included.
func TestDurableRollupLifecycle(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		ChunkSize:    32,
		Fsync:        FsyncNever,
		StoreOptions: []timeseries.Option{timeseries.WithRollups(timeseries.TierStep1m, timeseries.TierStep1h)},
	}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	id := testID("power", "n01")
	m := tsmodel.New(true)
	appendN := func(from, n int) {
		for i := from; i < from+n; i++ {
			if err := d.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*10_000, float64(i%97)); err != nil {
				t.Fatal(err)
			}
			m.Append(id, int64(i)*10_000, float64(i%97))
		}
	}
	appendN(0, 800) // ~2.2h at 10s cadence
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendN(800, 400)
	if n, err := d.RetainTier(timeseries.TierStep1m, int64(timeseries.TierStep1h)); err != nil || n == 0 {
		t.Fatalf("RetainTier: %d, %v", n, err)
	}
	appendN(1200, 100)
	want := d.Store().Dump()
	d.Crash() // snapshot + WAL tail replay path

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); !st.SnapshotLoaded || st.ReplayedRecords == 0 {
		t.Fatalf("recovery did not exercise snapshot+replay: %+v", st)
	}
	if !reflect.DeepEqual(re.Store().Dump(), want) {
		t.Fatal("crash recovery diverged from pre-crash rollup state")
	}
	if err := re.Close(); err != nil { // clean close: snapshot-only recovery
		t.Fatal(err)
	}
	re2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if st := re2.Stats(); st.ReplayedRecords != 0 {
		t.Fatalf("clean close still replayed %d records", st.ReplayedRecords)
	}
	if !reflect.DeepEqual(re2.Store().Dump(), want) {
		t.Fatal("snapshot-only recovery diverged from pre-crash rollup state")
	}
	// Folding resumes off the recovered accumulators exactly as the live
	// store would have: the planned answer is still the reference model's
	// over every sample appended.
	sum, n, err := re2.Store().ReducePlanned(id, 0, 1<<60, timeseries.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	rawSum, rawN, err := m.Reduce(id.Key(), 0, 1<<60, string(timeseries.AggSum))
	if err != nil {
		t.Fatal(err)
	}
	if sum != rawSum || n != rawN {
		t.Fatalf("planned answer and model disagree after recovery: (%v,%d) vs (%v,%d)", sum, n, rawSum, rawN)
	}
}

// TestLateSampleAfterFullRetentionRefused: a Retain that drops every raw
// chunk of a series leaves its tiers' open windows, whose newest sample stays
// the out-of-order watermark. A late sample is refused by the live store, by
// a RestoreStore copy and by a durable store reopened from its WAL or its
// snapshot, so the sealed 1m window [0, 60 s) keeps the six samples it had.
func TestLateSampleAfterFullRetentionRefused(t *testing.T) {
	id := testID("power", "n01")
	tiers := timeseries.WithRollups(timeseries.TierStep1m)
	type appender func(ts int64, v float64) error
	storeAppender := func(s *timeseries.Store) appender {
		return func(ts int64, v float64) error { return s.Append(id, metric.Gauge, metric.UnitWatt, ts, v) }
	}
	fill := func(app appender) {
		for ts := int64(0); ts <= 50_000; ts += 10_000 {
			if err := app(ts, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(name string, s *timeseries.Store, app appender) {
		t.Helper()
		if err := app(20_000, 100); err == nil {
			t.Fatalf("%s: a sample at 20 s was accepted after the series' raw chunks were retained away", name)
		}
		if err := app(70_000, 1); err != nil { // seals [0, 60 s)
			t.Fatalf("%s: %v", name, err)
		}
		count, _, err := s.ReducePlanned(id, 0, timeseries.TierStep1m, timeseries.AggCount)
		if err != nil || count != 6 {
			t.Fatalf("%s: window [0, 60 s) counts %v samples (%v), want 6", name, count, err)
		}
	}

	s := timeseries.NewStore(0, tiers)
	fill(storeAppender(s))
	if n := s.Retain(60_000); n != 6 {
		t.Fatalf("Retain dropped %d samples, want 6", n)
	}
	restored, err := timeseries.RestoreStore(0, s.Dump(), tiers)
	if err != nil {
		t.Fatal(err)
	}
	check("store", s, storeAppender(s))
	check("restored store", restored, storeAppender(restored))

	for _, from := range []string{"WAL", "snapshot"} {
		opts := Options{Fsync: FsyncNever, StoreOptions: []timeseries.Option{tiers}}
		dir := t.TempDir()
		d, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		fill(func(ts int64, v float64) error { return d.Append(id, metric.Gauge, metric.UnitWatt, ts, v) })
		if _, err := d.Retain(60_000); err != nil {
			t.Fatal(err)
		}
		if from == "WAL" {
			d.Crash()
		} else if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		check("durable store reopened from its "+from, re.Store(), func(ts int64, v float64) error {
			return re.Append(id, metric.Gauge, metric.UnitWatt, ts, v)
		})
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
