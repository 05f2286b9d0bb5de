package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// v4Snapshot is the snapshot file the commit that introduced the decimal
// chunk codec and the magic "ODASNP4\n" wrote for compatStore
// (GEN_V4_SNAPSHOT=1 go test -run TestSnapshotV4Golden rewrites it).
// v3Snapshot is the one the commit that moved rollup tier chunks to the
// column-predicted layout and the magic to "ODASNP3\n" wrote for the same
// input, every chunk Gorilla-coded. v2Snapshot is the file an older build,
// from before the bit writer was rewritten, wrote for the same input, in the
// format this build refuses (TestOpenRefusesUnsupportedFormats).
const (
	v4Snapshot = "testdata/snapshot-v4.snap"
	v3Snapshot = "testdata/snapshot-v3.snap"
	v2Snapshot = "testdata/snapshot-before-pr14.snap"
)

// compatStore ingests the store the snapshot holds: 24 fleet-style series
// for 400 ticks under the 1m and 1h rollups, plus one series of values the
// XOR encoder treats specially, then closes it so the directory holds one
// snapshot and an empty WAL.
func compatStore(t *testing.T, dir string) {
	t.Helper()
	opts := Options{Fsync: FsyncNever, StoreOptions: []timeseries.Option{timeseries.WithRollups(timeseries.TierStep1m, timeseries.TierStep1h)}}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const series = 24
	vals := newFleetValues(series)
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, math.MaxFloat64, 1}
	batch := make([]timeseries.BatchEntry, 0, series+1)
	for tick := 0; tick < 400; tick++ {
		vals.next()
		ts := int64(fleetT0 + tick*fleetStepMs)
		batch = batch[:0]
		for i := 0; i < series; i++ {
			batch = append(batch, timeseries.BatchEntry{ID: fleetID(i/8, i%8), Kind: metric.Gauge, Unit: metric.UnitWatt, T: ts, V: vals.value[i]})
		}
		batch = append(batch, timeseries.BatchEntry{ID: metric.ID{Name: "odd_values"}, Kind: metric.Gauge, Unit: metric.UnitWatt, T: ts, V: odd[tick%len(odd)]})
		if n, err := d.AppendBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("tick %d: appended %d of %d: %v", tick, n, len(batch), err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func onlySnapshot(t *testing.T, dir string) string {
	t.Helper()
	snaps, err := listSeqFiles(dir, "snap-", ".snap")
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots in %s: %v, %v", dir, snaps, err)
	}
	return snaps[0].path
}

// openSnapshotFile opens a data directory holding nothing but the snapshot
// data, under the name the one in dir has.
func openSnapshotFile(t *testing.T, dir string, data []byte) *DurableStore {
	t.Helper()
	only := t.TempDir()
	if err := os.WriteFile(filepath.Join(only, filepath.Base(onlySnapshot(t, dir))), data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(only, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("open on the committed snapshot: %v", err)
	}
	if st := d.Stats(); !st.SnapshotLoaded || st.SnapshotLoadDuration <= 0 {
		t.Fatalf("committed snapshot not loaded: %+v", st)
	}
	return d
}

// TestSnapshotV4Golden pins the snapshot format across encoder rewrites in
// both directions. The snapshot this commit writes for compatStore is the
// committed v4 file byte for byte, and the committed file loads through the
// whole of recovery: loadSnapshot runs RestoreStore, which re-encodes every
// chunk, raw and tier, in the code its tag names and refuses the file if one
// byte differs. So the commit that wrote the file loads ours, and we load
// its. A change that moves either is a new format.
func TestSnapshotV4Golden(t *testing.T) {
	dir := t.TempDir()
	compatStore(t, dir)
	written, err := os.ReadFile(onlySnapshot(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("GEN_V4_SNAPSHOT") != "" {
		if err := os.WriteFile(v4Snapshot, written, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", v4Snapshot, len(written))
	}
	committed, err := os.ReadFile(v4Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, committed) {
		t.Fatalf("this commit's snapshot (%d bytes) differs from the committed one (%d bytes) for the same input", len(written), len(committed))
	}
	re := openSnapshotFile(t, dir, committed)
	defer re.Crash()
	mine, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer mine.Crash()
	// Compared encoded: the accumulators hold NaNs, which DeepEqual tells apart.
	got, want := re.Store().Dump(), mine.Store().Dump()
	if len(got) != 25 || !bytes.Equal(EncodeDump(120, got), EncodeDump(120, want)) {
		t.Fatalf("store from the committed snapshot (%d series) differs from this commit's (%d series)", len(got), len(want))
	}
}

// TestSnapshotAcrossEncoderRewrite: the committed v3 file — written before
// the decimal codec, every chunk Gorilla-coded and untagged — loads through
// the same decoder, RestoreStore re-encoding each chunk through the Gorilla
// path byte for byte, and holds the store this commit builds from the same
// input: the same chunk boundaries, every raw sample and every sealed rollup
// window bit for bit, the same open-window accumulators.
func TestSnapshotAcrossEncoderRewrite(t *testing.T) {
	dir := t.TempDir()
	compatStore(t, dir)
	parent, err := os.ReadFile(v3Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	re := openSnapshotFile(t, dir, parent)
	defer re.Crash()
	mine, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer mine.Crash()
	old, cur := re.Store(), mine.Store()
	got, want := old.Dump(), cur.Dump()
	if len(got) != 25 || len(got) != len(want) {
		t.Fatalf("store from the v3 snapshot holds %d series, this commit's %d", len(got), len(want))
	}
	decimal := 0
	for i, sd := range got {
		wd := want[i]
		if sd.ID.Key() != wd.ID.Key() || len(sd.Tiers) != len(wd.Tiers) {
			t.Fatalf("series %d: %s with %d tiers, want %s with %d", i, sd.ID.Key(), len(sd.Tiers), wd.ID.Key(), len(wd.Tiers))
		}
		lists := [][2][]timeseries.ChunkDump{{sd.Chunks, wd.Chunks}}
		for j, td := range sd.Tiers {
			if td.Step != wd.Tiers[j].Step || accBits(td.Acc) != accBits(wd.Tiers[j].Acc) {
				t.Fatalf("%s tier %d: step or accumulator differs", sd.ID.Key(), j)
			}
			lists = append(lists, [2][]timeseries.ChunkDump{td.Chunks, wd.Tiers[j].Chunks})
		}
		for _, l := range lists {
			if len(l[0]) != len(l[1]) {
				t.Fatalf("%s: %d chunks, want %d", sd.ID.Key(), len(l[0]), len(l[1]))
			}
			for k := range l[0] {
				if l[0][k].Decimal || l[0][k].Count != l[1][k].Count {
					t.Fatalf("%s chunk %d: %d samples, decimal %v; want %d, Gorilla", sd.ID.Key(), k, l[0][k].Count, l[0][k].Decimal, l[1][k].Count)
				}
				if l[1][k].Decimal {
					decimal++
				}
			}
		}
		sameSamples(t, old, cur, sd.ID)
		for _, step := range []int64{timeseries.TierStep1m, timeseries.TierStep1h} {
			sameWindows(t, old, cur, sd.ID, step)
		}
	}
	if decimal == 0 {
		t.Fatal("this commit coded no chunk of the compat store as decimals")
	}
}

// accBits is a rollup accumulator with its floats as bits, comparable with ==.
func accBits(a timeseries.RollupAcc) [10]uint64 {
	b := func(v float64) uint64 { return math.Float64bits(v) }
	active := uint64(0)
	if a.Active {
		active = 1
	}
	return [10]uint64{active, uint64(a.Start), uint64(a.Count), b(a.Sum), b(a.Min), b(a.Max), uint64(a.FirstT), b(a.FirstV), uint64(a.LastT), b(a.LastV)}
}

// sameSamples requires two stores to hold the same raw samples for id, bit
// for bit.
func sameSamples(t *testing.T, a, b *timeseries.Store, id metric.ID) {
	t.Helper()
	var got, want []metric.Sample
	for _, sc := range []struct {
		s   *timeseries.Store
		out *[]metric.Sample
	}{{a, &got}, {b, &want}} {
		if err := sc.s.Each(id, math.MinInt64, math.MaxInt64, func(sm metric.Sample) bool {
			*sc.out = append(*sc.out, sm)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("%s: %d samples, want %d", id.Key(), len(got), len(want))
	}
	for i := range got {
		if got[i].T != want[i].T || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
			t.Fatalf("%s sample %d: (%d, %016x), want (%d, %016x)", id.Key(), i, got[i].T, math.Float64bits(got[i].V), want[i].T, math.Float64bits(want[i].V))
		}
	}
}

// sameWindows requires two stores to answer id's windows of one rollup step,
// over the whole of time, from the same plan and with the same partials, bit
// for bit.
func sameWindows(t *testing.T, a, b *timeseries.Store, id metric.ID, step int64) {
	t.Helper()
	from, to := int64(fleetT0)/step*step, int64(fleetT0+400*fleetStepMs)
	got, gotPlan, err := a.AggregatePartials(id, from, to, step)
	if err != nil {
		t.Fatal(err)
	}
	want, wantPlan, err := b.AggregatePartials(id, from, to, step)
	if err != nil {
		t.Fatal(err)
	}
	if gotPlan != wantPlan || gotPlan.TierStep != step || len(got) != len(want) {
		t.Fatalf("%s step %d: plan %+v with %d windows, want %+v with %d", id.Key(), step, gotPlan, len(got), wantPlan, len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Start != w.Start || g.Agg.Count != w.Agg.Count || g.Agg.FirstT != w.Agg.FirstT || g.Agg.LastT != w.Agg.LastT ||
			accBits(timeseries.RollupAcc{Sum: g.Agg.Sum, Min: g.Agg.Min, Max: g.Agg.Max, FirstV: g.Agg.FirstV, LastV: g.Agg.LastV}) !=
				accBits(timeseries.RollupAcc{Sum: w.Agg.Sum, Min: w.Agg.Min, Max: w.Agg.Max, FirstV: w.Agg.FirstV, LastV: w.Agg.LastV}) {
			t.Fatalf("%s step %d window %d: %+v, want %+v", id.Key(), step, i, g, w)
		}
	}
}
