package persist

import (
	"reflect"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
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
	appendN := func(from, n int) {
		for i := from; i < from+n; i++ {
			if err := d.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*10_000, float64(i%97)); err != nil {
				t.Fatal(err)
			}
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
	// store would have: planned and raw answers still agree.
	sum, n, err := re2.Store().ReducePlanned(id, 0, 1<<60, timeseries.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	rawSum, rawN, err := re2.Store().Reduce(id, 0, 1<<60, timeseries.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if sum != rawSum || n != rawN {
		t.Fatalf("planned/raw disagree after recovery: (%v,%d) vs (%v,%d)", sum, n, rawSum, rawN)
	}
}
