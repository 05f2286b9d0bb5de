package persist

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// refIngest drives a mixed ref-path workload against a durable store:
// resolve, append by ref, Retain and re-resolve — the sequence a collector
// sink produces in production.
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
// (opDefine + opAppendCols records, with retention interleaved) recovers
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

// TestWALBytesPerSample pins the on-disk cost of a logged sample (its
// value plus its share of the column record's header, which a
// scrape's two samples split): at most 20 WAL bytes per sample on a
// 2-series, 200-round stream, through either entry point. The retired
// keyed record, which re-encoded the full ID and unit per entry, cost 57.5
// on the same stream.
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
// valid (same store instance), the next AppendRefs re-defines them on the fly,
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

// TestStaleRefsNeverLogged: entries the live store would reject as stale —
// refs minted by the store instance a crash recovery replaced — are
// filtered before logging, so replay cannot resurrect them. A wholly stale
// batch logs nothing at all.
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
	d.Crash()
	// Recovery builds a new store instance: the ref above names the old one.
	if d, err = Open(dir, opts); err != nil {
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
// record stream (SegmentReader + an Applier, flushed after each read) converges on
// the leader's exact store — including opDefine/opAppendCols records and the
// retention records interleaved between them.
func TestSegmentStreamReplaysRefRecords(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{ChunkSize: 8, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	refIngest(t, d, 40)

	follower := timeseries.NewStore(8)
	app := NewApplier(follower)
	defer app.Close()
	sr := NewSegmentReader(dir)
	seq, off := uint64(0), int64(0)
	for {
		nseq, noff, n, err := sr.ReadFrom(seq, off, 1<<20, app.Apply)
		if err != nil {
			t.Fatal(err)
		}
		app.Flush()
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

// countingAppender counts the Resolve calls that reach the appender it
// wraps, including a DurableStore's, which re-hands a bound ref without
// touching the store's own counter.
type countingAppender struct {
	timeseries.RefAppender
	resolves int
}

func (c *countingAppender) Resolve(id metric.ID, kind metric.Kind, unit metric.Unit) (timeseries.SeriesRef, error) {
	c.resolves++
	return c.RefAppender.Resolve(id, kind, unit)
}

// TestRetainKeepsRefsLive: retention never invalidates a ref. On a plain
// Store and on a DurableStore, by ref and through a RefCache, refs resolved
// before Retain and RetainTier — each called once dropping chunks and once
// dropping nothing — keep landing: no entry goes stale and no series is
// resolved again.
func TestRetainKeepsRefsLive(t *testing.T) {
	ids := []metric.ID{testID("power", "n01"), testID("temp", "n01")}
	opts := []timeseries.Option{timeseries.WithRollups(4000)}
	type subject struct {
		app        timeseries.RefAppender
		store      *timeseries.Store
		retain     func(cutoff int64) int
		retainTier func(step, cutoff int64) int
	}
	subjects := []struct {
		name string
		open func(t *testing.T) subject
	}{
		{"store", func(t *testing.T) subject {
			s := timeseries.NewStore(8, opts...)
			return subject{s, s, s.Retain, s.RetainTier}
		}},
		{"durable", func(t *testing.T) subject {
			d, err := Open(t.TempDir(), Options{ChunkSize: 8, Fsync: FsyncNever, StoreOptions: opts})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Crash)
			must := func(n int, err error) int {
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			return subject{d, d.Store(),
				func(cutoff int64) int { return must(d.Retain(cutoff)) },
				func(step, cutoff int64) int { return must(d.RetainTier(step, cutoff)) }}
		}},
	}
	for _, sj := range subjects {
		for _, cached := range []bool{false, true} {
			name := sj.name
			if cached {
				name += "/refcache"
			}
			t.Run(name, func(t *testing.T) {
				sub := sj.open(t)
				app := &countingAppender{RefAppender: sub.app}
				cache := timeseries.NewRefCache(app)
				refs := make([]timeseries.SeriesRef, len(ids))
				for i, id := range ids {
					var err error
					if refs[i], err = app.Resolve(id, metric.Gauge, metric.UnitWatt); err != nil {
						t.Fatal(err)
					}
				}
				now := int64(0)
				appendRound := func() {
					now += 1000
					var n int
					var err error
					if cached {
						batch := make([]timeseries.BatchEntry, len(ids))
						for i, id := range ids {
							batch[i] = timeseries.BatchEntry{ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, T: now, V: float64(i)}
						}
						n, err = cache.AppendBatch(batch)
					} else {
						entries := make([]timeseries.RefEntry, len(ids))
						for i := range ids {
							entries[i] = timeseries.RefEntry{Ref: refs[i], T: now, V: float64(i)}
						}
						n, err = app.AppendRefs(entries)
					}
					if n != len(ids) || err != nil {
						t.Fatalf("append at %d: %d of %d, %v", now, n, len(ids), err)
					}
				}
				for r := 0; r < 40; r++ {
					appendRound()
				}
				before, resolves := sub.store.RefStats(), app.resolves
				steps := []struct {
					name  string
					call  func() int
					drops bool
				}{
					{"retain", func() int { return sub.retain(now - 10_000) }, true},
					{"retain nothing", func() int { return sub.retain(0) }, false},
					{"retain-tier", func() int { return sub.retainTier(4000, now-10_000) }, true},
					{"retain-tier nothing", func() int { return sub.retainTier(4000, 0) }, false},
				}
				for _, st := range steps {
					if n := st.call(); (n > 0) != st.drops {
						t.Fatalf("%s dropped %d", st.name, n)
					}
					appendRound()
				}
				after := sub.store.RefStats()
				if after.StaleRefs != 0 || after.Resolves != before.Resolves || app.resolves != resolves {
					t.Fatalf("refs did not survive retention: before %+v, after %+v, %d resolves through the appender",
						before, after, app.resolves-resolves)
				}
			})
		}
	}
}
