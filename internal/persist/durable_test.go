package persist

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// applyWorkload drives a representative op mix through a durable store:
// regular appends across several series, an out-of-order rejection, a
// downsample and a retention pass.
func applyWorkload(t *testing.T, d *DurableStore, rounds int) {
	t.Helper()
	ids := []metric.ID{testID("power", "n01"), testID("power", "n02"), testID("temp", "n01")}
	for r := 0; r < rounds; r++ {
		now := int64(1000 + r*1000)
		batch := make([]timeseries.BatchEntry, 0, len(ids))
		for i, id := range ids {
			batch = append(batch, timeseries.BatchEntry{
				ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt,
				T: now, V: float64(r*10 + i),
			})
		}
		if n, err := d.AppendBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("round %d: AppendBatch = %d, %v", r, n, err)
		}
		switch {
		case r == rounds/2:
			// Duplicate timestamp: rejected live, rejected again at replay.
			if n, err := d.AppendBatch(batch[:1]); err == nil || n != 0 {
				t.Fatalf("duplicate batch accepted: %d, %v", n, err)
			}
		case r == rounds/3:
			if _, err := d.Downsample(ids[2], 2000); err != nil {
				t.Fatalf("downsample: %v", err)
			}
		case r == 2*rounds/3:
			if _, err := d.Retain(int64(1000 + (r-5)*1000)); err != nil {
				t.Fatalf("retain: %v", err)
			}
		}
	}
}

func TestKillAndRecoverAllPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{ChunkSize: 8, Fsync: policy, FsyncEvery: 5 * time.Millisecond}
			d, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			applyWorkload(t, d, 30)
			want := d.Store().Dump()
			d.Crash() // no checkpoint, no graceful close

			re, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer re.Close()
			got := re.Store().Dump()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered store diverged from pre-crash store (%d vs %d series)", len(got), len(want))
			}
			st := re.Stats()
			if st.SnapshotLoaded {
				t.Fatal("no checkpoint was written; recovery must be WAL-only")
			}
			if st.ReplayedRecords == 0 {
				t.Fatal("expected WAL replay to report records")
			}
			// The recovered store keeps working.
			if err := re.Append(testID("power", "n01"), metric.Gauge, metric.UnitWatt, 1_000_000, 42); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
		})
	}
}

func TestRecoverFromSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkSize: 8, Fsync: FsyncNever}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, d, 20)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Post-checkpoint mutations land only in the WAL tail.
	for r := 0; r < 7; r++ {
		if err := d.Append(testID("power", "n01"), metric.Gauge, metric.UnitWatt, int64(100000+r*500), float64(r)); err != nil {
			t.Fatal(err)
		}
	}
	want := d.Store().Dump()
	d.Crash()

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !reflect.DeepEqual(re.Store().Dump(), want) {
		t.Fatal("snapshot+WAL recovery diverged from pre-crash store")
	}
	st := re.Stats()
	if !st.SnapshotLoaded {
		t.Fatal("expected recovery to load the checkpoint snapshot")
	}
	// The checkpoint cleared the WAL-ref table, so the tail is one
	// re-define of the series plus the 7 appends.
	if st.ReplayedRecords != 8 {
		t.Fatalf("expected exactly the 8 post-checkpoint records replayed, got %d", st.ReplayedRecords)
	}
}

func TestCleanCloseRecoversReplayFree(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkSize: 8, Fsync: FsyncAlways}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, d, 15)
	want := d.Store().Dump()
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !reflect.DeepEqual(re.Store().Dump(), want) {
		t.Fatal("store after clean close + reopen diverged")
	}
	st := re.Stats()
	if !st.SnapshotLoaded || st.ReplayedRecords != 0 {
		t.Fatalf("clean shutdown should recover replay-free: snapshot=%v replayed=%d", st.SnapshotLoaded, st.ReplayedRecords)
	}
}

func TestCheckpointGarbageCollectsSegments(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkSize: 8, Fsync: FsyncNever, SegmentSize: 512}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	applyWorkload(t, d, 40) // tiny segments => many rotations
	before := d.Stats()
	if before.Segments < 3 {
		t.Fatalf("workload should span several segments, got %d", before.Segments)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := d.Stats()
	if after.Segments != 1 {
		t.Fatalf("checkpoint should leave exactly the live segment, got %d", after.Segments)
	}
	if after.Checkpoints != 1 || after.SnapshotBytes == 0 {
		t.Fatalf("checkpoint counters not updated: %+v", after)
	}
}

func TestClosedStoreRefusesMutations(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(testID("m", "n"), metric.Gauge, metric.UnitWatt, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := d.AppendBatch([]timeseries.BatchEntry{{ID: testID("m", "n"), T: 2, V: 2}}); !errors.Is(err, timeseries.ErrStoreClosed) {
		t.Fatalf("append after close: want ErrStoreClosed, got %v", err)
	}
	// Through a RefCache too, for a series it has resolved before (AppendRefs
	// refuses) and one it has not (Resolve refuses): no other path is tried.
	rc := timeseries.NewRefCache(d)
	for _, id := range []metric.ID{testID("m", "n"), testID("fresh", "n")} {
		if n, err := rc.AppendBatch([]timeseries.BatchEntry{{ID: id, T: 3, V: 3}}); n != 0 || !errors.Is(err, timeseries.ErrStoreClosed) {
			t.Fatalf("RefCache append of %s after close: %d, %v; want 0, ErrStoreClosed", id.Key(), n, err)
		}
	}
	if _, err := d.Downsample(testID("m", "n"), 10); !errors.Is(err, timeseries.ErrStoreClosed) {
		t.Fatalf("downsample after close: want ErrStoreClosed, got %v", err)
	}
	if _, err := d.Retain(0); !errors.Is(err, timeseries.ErrStoreClosed) {
		t.Fatalf("retain after close: want ErrStoreClosed, got %v", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, timeseries.ErrStoreClosed) {
		t.Fatalf("checkpoint after close: want ErrStoreClosed, got %v", err)
	}
	// Reads still work on the drained store.
	if n := d.Store().NumSamples(); n != 1 {
		t.Fatalf("closed store lost data: %d samples", n)
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkSize: 8, Fsync: FsyncNever}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyWorkload(t, d, 12)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		if err := d.Append(testID("extra", "n09"), metric.Gauge, metric.UnitWatt, int64(1+r), float64(r)); err != nil {
			t.Fatal(err)
		}
	}
	want := d.Store().Dump()
	d.Crash()

	// A later checkpoint "crashed": a higher-seq snapshot exists but is
	// garbage (a flipped bit in its payload fails the checksum). Recovery
	// must fall back to the older valid snapshot and still replay the live
	// WAL tail.
	if _, err := writeSnapshot(dir, 99, 8, want); err != nil {
		t.Fatal(err)
	}
	corruptPath := dir + "/" + snapshotName(99)
	if err := corruptFile(corruptPath); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !reflect.DeepEqual(re.Store().Dump(), want) {
		t.Fatal("fallback recovery diverged")
	}
	if st := re.Stats(); !st.SnapshotLoaded {
		t.Fatal("expected the older snapshot to load")
	}
}

func TestConcurrentAppendersGroupCommit(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{ChunkSize: 16, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := testID("load", string(rune('a'+w)))
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				t0 := int64(1000 + i*100)
				if _, err := d.AppendBatch([]timeseries.BatchEntry{{ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, T: t0, V: rng.Float64()}}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := d.Store().Dump()
	st := d.Stats()
	// One define per worker's series, one append record per call.
	if st.WALRecords != workers+workers*perWorker {
		t.Fatalf("wal records = %d, want %d", st.WALRecords, workers+workers*perWorker)
	}
	if st.Fsyncs+st.CoalescedSyncs < workers*perWorker {
		t.Fatalf("every acknowledged append needs a covering fsync: fsyncs=%d coalesced=%d", st.Fsyncs, st.CoalescedSyncs)
	}
	d.Crash()

	re, err := Open(dir, Options{ChunkSize: 16, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !reflect.DeepEqual(re.Store().Dump(), want) {
		t.Fatal("concurrent-append recovery diverged (WAL order must equal apply order)")
	}
}
