package persist

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// refIngest drives a mixed ref-path workload against a durable store:
// resolve, append by ref, re-resolve across epoch bumps from Downsample and
// Retain — the exact sequence a collector sink produces in production.
func refIngest(t *testing.T, d *DurableStore, ops int) {
	t.Helper()
	ids := []metric.ID{testID("power", "n01"), testID("temp", "n02")}
	refs := make([]timeseries.SeriesRef, len(ids))
	resolve := func() {
		for i, id := range ids {
			ref, err := d.Resolve(id, metric.Gauge, metric.UnitWatt)
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = ref
		}
	}
	resolve()
	for r := 0; r < ops; r++ {
		now := int64(1000 + r*1000)
		switch {
		case r%10 == 7:
			if _, err := d.Downsample(ids[0], 4000); err != nil {
				t.Fatal(err)
			}
			resolve() // epoch bumped: old refs are stale
		case r%10 == 9:
			if _, err := d.Retain(now - 6000); err != nil {
				t.Fatal(err)
			}
			resolve()
		default:
			entries := []timeseries.RefEntry{
				{Ref: refs[0], T: now, V: float64(r)},
				{Ref: refs[1], T: now, V: float64(100 - r)},
			}
			if n, err := d.AppendRefs(entries); err != nil || n != 2 {
				t.Fatalf("op %d: appended %d, %v", r, n, err)
			}
		}
	}
}

// TestRefIngestCrashRecovery: a store fed purely through the ref fast path
// (opDefine + opAppendRef records, with epoch bumps interleaved) recovers
// byte-identical after a crash — the same guarantee keyed ingest has.
func TestRefIngestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkSize: 8, Fsync: FsyncAlways}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	refIngest(t, d, 40)
	want := d.Store().Dump()
	d.Crash()

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Crash()
	if !reflect.DeepEqual(re.Store().Dump(), want) {
		t.Fatal("ref-ingested store did not recover byte-identical")
	}
}

// TestRefIngestMatchesKeyedIngest: the same sample stream through
// AppendRefs and through the keyed AppendBatch adapter produces DeepEqual
// stores, both live and after crash recovery.
func TestRefIngestMatchesKeyedIngest(t *testing.T) {
	ids := []metric.ID{testID("power", "n01"), testID("temp", "n02")}
	opts := Options{ChunkSize: 8, Fsync: FsyncAlways}

	keyedDir, refDir := t.TempDir(), t.TempDir()
	keyed, err := Open(keyedDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	refed, err := Open(refDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]timeseries.SeriesRef, len(ids))
	for i, id := range ids {
		if refs[i], err = refed.Resolve(id, metric.Gauge, metric.UnitWatt); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 30; r++ {
		now := int64(1000 + r*1000)
		batch := make([]timeseries.BatchEntry, len(ids))
		rents := make([]timeseries.RefEntry, len(ids))
		for i, id := range ids {
			batch[i] = timeseries.BatchEntry{ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, T: now, V: float64(r*10 + i)}
			rents[i] = timeseries.RefEntry{Ref: refs[i], T: now, V: float64(r*10 + i)}
		}
		nk, errK := keyed.AppendBatch(batch)
		nr, errR := refed.AppendRefs(rents)
		if nk != nr || errK != nil || errR != nil {
			t.Fatalf("op %d: keyed (%d,%v) vs refs (%d,%v)", r, nk, errK, nr, errR)
		}
	}
	if !reflect.DeepEqual(keyed.Store().Dump(), refed.Store().Dump()) {
		t.Fatal("live stores diverged between keyed and ref ingest")
	}
	keyed.Crash()
	refed.Crash()
	rek, err := Open(keyedDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rek.Crash()
	rer, err := Open(refDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rer.Crash()
	if !reflect.DeepEqual(rek.Store().Dump(), rer.Store().Dump()) {
		t.Fatal("recovered stores diverged between keyed and ref ingest")
	}
}

// TestWALBytesPerSample pins the on-disk cost of a logged sample (a ref
// uvarint + delta-t + value, plus the record header shared by a scrape):
// at most 20 WAL bytes per sample on a 2-series, 200-round stream, through
// either entry point. The retired keyed record, which re-encoded the full
// ID and unit per entry, cost 57.5 on the same stream.
func TestWALBytesPerSample(t *testing.T) {
	ids := []metric.ID{
		{Name: "node_power_watts", Labels: metric.NewLabels("node", "n042", "rack", "r02")},
		{Name: "node_cpu_temp_celsius", Labels: metric.NewLabels("node", "n042", "rack", "r02")},
	}
	const rounds = 200
	for _, keyed := range []bool{false, true} {
		d, err := Open(t.TempDir(), Options{ChunkSize: 64, Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Crash()
		refs := make([]timeseries.SeriesRef, len(ids))
		for i, id := range ids {
			if refs[i], err = d.Resolve(id, metric.Gauge, metric.UnitWatt); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < rounds; r++ {
			now := int64(1000 + r*1000)
			batch := make([]timeseries.BatchEntry, len(ids))
			rents := make([]timeseries.RefEntry, len(ids))
			for i, id := range ids {
				batch[i] = timeseries.BatchEntry{ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, T: now, V: float64(r)}
				rents[i] = timeseries.RefEntry{Ref: refs[i], T: now, V: float64(r)}
			}
			if keyed {
				_, err = d.AppendBatch(batch)
			} else {
				_, err = d.AppendRefs(rents)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		perSample := float64(d.Stats().WALBytes) / float64(rounds*len(ids))
		t.Logf("WAL bytes/sample (keyed adapter=%v): %.1f", keyed, perSample)
		if perSample > 20 {
			t.Fatalf("WAL costs %.1f bytes/sample (keyed adapter=%v), budget 20", perSample, keyed)
		}
	}
}

// TestCheckpointRebindsWALRefs: a checkpoint clears the WAL-ref table so
// post-snapshot segments are self-contained. Outstanding SeriesRefs stay
// valid (no epoch bump), the next AppendRefs re-defines them on the fly,
// and recovery from snapshot + post-cut WAL is exact.
func TestCheckpointRebindsWALRefs(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkSize: 8, Fsync: FsyncAlways}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	id := testID("power", "n01")
	ref, err := d.Resolve(id, metric.Gauge, metric.UnitWatt)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d.AppendRefs([]timeseries.RefEntry{{Ref: ref, T: 1000, V: 1}}); n != 1 || err != nil {
		t.Fatalf("pre-checkpoint append: %d, %v", n, err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The ref survived the checkpoint; the wrapper must re-log its
	// definition before the post-cut append record.
	if n, err := d.AppendRefs([]timeseries.RefEntry{{Ref: ref, T: 2000, V: 2}}); n != 1 || err != nil {
		t.Fatalf("post-checkpoint append: %d, %v", n, err)
	}
	want := d.Store().Dump()
	d.Crash()
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Crash()
	if !reflect.DeepEqual(re.Store().Dump(), want) {
		t.Fatal("post-checkpoint ref records did not recover")
	}
	if st := re.Stats(); !st.SnapshotLoaded {
		t.Fatal("recovery ignored the checkpoint snapshot")
	}
}

// TestStaleRefsNeverLogged: entries the live store would reject as stale
// are filtered before logging, so replay cannot resurrect them. A wholly
// stale batch logs nothing at all.
func TestStaleRefsNeverLogged(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkSize: 8, Fsync: FsyncAlways}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	id := testID("power", "n01")
	ref, err := d.Resolve(id, metric.Gauge, metric.UnitWatt)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d.AppendRefs([]timeseries.RefEntry{{Ref: ref, T: 1000, V: 1}}); n != 1 || err != nil {
		t.Fatalf("seed append: %d, %v", n, err)
	}
	if _, err := d.Retain(0); err != nil { // bumps the ref epoch
		t.Fatal(err)
	}
	before := d.Stats().WALRecords
	n, err := d.AppendRefs([]timeseries.RefEntry{{Ref: ref, T: 2000, V: 2}})
	if n != 0 || !errors.Is(err, timeseries.ErrStaleRef) {
		t.Fatalf("stale batch: %d, %v", n, err)
	}
	if after := d.Stats().WALRecords; after != before {
		t.Fatalf("stale batch logged %d records", after-before)
	}
	want := d.Store().Dump()
	d.Crash()
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Crash()
	if !reflect.DeepEqual(re.Store().Dump(), want) {
		t.Fatal("recovery diverged after a rejected stale batch")
	}
}

// TestSegmentStreamReplaysRefRecords: a follower applying the leader's raw
// record stream (SegmentReader + ApplyRecord with a RefTable) converges on
// the leader's exact store — including opDefine/opAppendRef records and the
// epoch bumps interleaved between them.
func TestSegmentStreamReplaysRefRecords(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{ChunkSize: 8, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	refIngest(t, d, 40)

	follower := timeseries.NewStore(8)
	rt := NewRefTable()
	sr := NewSegmentReader(dir)
	seq, off := uint64(0), int64(0)
	for {
		nseq, noff, n, err := sr.ReadFrom(seq, off, 1<<20, func(payload []byte) error {
			return ApplyRecord(follower, rt, payload)
		})
		if err != nil {
			t.Fatal(err)
		}
		seq, off = nseq, noff
		if n == 0 {
			break
		}
	}
	if !reflect.DeepEqual(follower.Dump(), d.Store().Dump()) {
		t.Fatal("follower diverged from ref-ingesting leader")
	}
	d.Crash()
}
