package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// v5Snapshot is the snapshot file the commit that introduced the one-sample
// window layout and the magic "ODASNP5\n" wrote for compatStore at a 60 s
// cadence, where every 1m window holds one sample (GEN_V5_SNAPSHOT=1 go test
// -run TestSnapshotV5Golden rewrites it). v4OneSampleSnapshot is the one the
// commit before it, with the magic "ODASNP4\n", wrote for the same input, its
// one-sample windows coded whole; v4Snapshot is the one the commit that
// introduced the decimal chunk codec wrote for compatStore at the fleet's 10 s
// cadence. v3Snapshot is the one the commit that moved rollup tier chunks to
// the column-predicted layout and the magic to "ODASNP3\n" wrote for that
// 10 s input, every chunk Gorilla-coded. v2Snapshot is the file an older
// build, from before the bit writer was rewritten, wrote for the same input,
// in the format this build refuses (TestOpenRefusesUnsupportedFormats).
const (
	v5Snapshot          = "testdata/snapshot-v5.snap"
	v4OneSampleSnapshot = "testdata/snapshot-v4-one-sample.snap"
	v4Snapshot          = "testdata/snapshot-v4.snap"
	v3Snapshot          = "testdata/snapshot-v3.snap"
	v2Snapshot          = "testdata/snapshot-before-pr14.snap"
)

// compatTicks is how many samples compatStore gives each series.
const compatTicks = 400

// compatStore ingests the store the snapshots hold: 24 fleet-style series
// for compatTicks ticks of step ms under the 1m and 1h rollups, plus one
// series of values the XOR encoder treats specially, then closes it so the
// directory holds one snapshot and an empty WAL.
func compatStore(t *testing.T, dir string, step int64) {
	t.Helper()
	opts := Options{Fsync: FsyncNever, StoreOptions: []timeseries.Option{timeseries.WithRollups(timeseries.TierStep1m, timeseries.TierStep1h)}}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	compatFeed(t, newFleetValues(compatSeries), 0, compatTicks, step, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// compatSeries is how many fleet-style series compatStore holds.
const compatSeries = 24

// compatFeed appends ticks [from, to) of compatStore's input, at step ms a
// tick, to every store in ds; vals is the fleet's value stream, advanced
// once a tick, and must stand at tick from.
func compatFeed(t *testing.T, vals *fleetValues, from, to int, step int64, ds ...*DurableStore) {
	t.Helper()
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, math.MaxFloat64, 1}
	batch := make([]timeseries.BatchEntry, 0, compatSeries+1)
	for tick := from; tick < to; tick++ {
		vals.next()
		ts := fleetT0 + int64(tick)*step
		batch = batch[:0]
		for i := 0; i < compatSeries; i++ {
			batch = append(batch, timeseries.BatchEntry{ID: fleetID(i/8, i%8), Kind: metric.Gauge, Unit: metric.UnitWatt, T: ts, V: vals.value[i]})
		}
		batch = append(batch, timeseries.BatchEntry{ID: metric.ID{Name: "odd_values"}, Kind: metric.Gauge, Unit: metric.UnitWatt, T: ts, V: odd[tick%len(odd)]})
		for _, d := range ds {
			if n, err := d.AppendBatch(batch); err != nil || n != len(batch) {
				t.Fatalf("tick %d: appended %d of %d: %v", tick, n, len(batch), err)
			}
		}
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

// TestSnapshotV5Golden pins the snapshot format across encoder rewrites in
// both directions. The snapshot this commit writes for compatStore at a 60 s
// cadence is the committed v5 file byte for byte, and the committed file
// loads through the whole of recovery: loadSnapshot runs RestoreStore, which
// decodes and checks every chunk, raw and tier, adopts the sealed ones as
// they are, and re-encodes each series' and each tier's last in the code and
// layout its tag names, refusing the file if one of those bytes differs
// (TestRestoreCanonical re-encodes every chunk of it). So the commit that
// wrote the file loads ours, and we load its. A change that moves either is
// a new format.
func TestSnapshotV5Golden(t *testing.T) {
	dir := t.TempDir()
	compatStore(t, dir, 60_000)
	written, err := os.ReadFile(onlySnapshot(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("GEN_V5_SNAPSHOT") != "" {
		if err := os.WriteFile(v5Snapshot, written, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", v5Snapshot, len(written))
	}
	committed, err := os.ReadFile(v5Snapshot)
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
	if len(got) != compatSeries+1 || !bytes.Equal(EncodeDump(120, got), EncodeDump(120, want)) {
		t.Fatalf("store from the committed snapshot (%d series) differs from this commit's (%d series)", len(got), len(want))
	}
}

// olderSnapshots are the committed files of older formats this build still
// loads, each with the cadence of the input that wrote it.
var olderSnapshots = []struct {
	path    string
	version int
	step    int64
}{
	{v3Snapshot, 3, fleetStepMs},
	{v4Snapshot, 4, fleetStepMs},
	{v4OneSampleSnapshot, 4, 60_000},
}

// TestSnapshotAcrossEncoderRewrite: each committed file of an older format —
// v3, written before the decimal codec, every chunk Gorilla-coded and
// untagged; v4, before the one-sample window layout, at the 10 s cadence and
// at 60 s, where every 1m window holds one sample — loads through the same
// decoder, RestoreStore adopting each sealed chunk and re-encoding each last
// one in the code and layout it was written in, byte for byte
// (TestRestoreCanonical re-encodes every one), and holds the store this
// commit builds from the same input: the same chunk boundaries, every raw sample and every sealed
// rollup window bit for bit, the same open-window accumulators.
func TestSnapshotAcrossEncoderRewrite(t *testing.T) {
	for _, f := range olderSnapshots {
		t.Run(filepath.Base(f.path), func(t *testing.T) {
			dir := t.TempDir()
			compatStore(t, dir, f.step)
			parent, err := os.ReadFile(f.path)
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
			sameStores(t, re.Store(), mine.Store(), f.version, f.step)
		})
	}
}

// sameStores requires old, loaded from a snapshot of the given format
// version, to hold what cur, this commit's store of the same input at step
// ms a tick, holds: the same series, chunk boundaries and accumulators,
// every raw sample and sealed window bit for bit. A v3 file's chunks are
// Gorilla-coded; a v4 file's chunks take the code this commit picks; no
// tier chunk of either is in the one-sample window layout, every one this
// commit writes is.
func sameStores(t *testing.T, old, cur *timeseries.Store, version int, step int64) {
	t.Helper()
	got, want := old.Dump(), cur.Dump()
	if len(got) != compatSeries+1 || len(got) != len(want) {
		t.Fatalf("store from the v%d snapshot holds %d series, this commit's %d", version, len(got), len(want))
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
		for l, pair := range lists {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("%s: %d chunks, want %d", sd.ID.Key(), len(pair[0]), len(pair[1]))
			}
			for k, oc := range pair[0] {
				wc := pair[1][k]
				code := wc.Decimal
				if version == 3 {
					code = false
				}
				if oc.Count != wc.Count || oc.Decimal != code || oc.OneSample || wc.OneSample != (l > 0) {
					t.Fatalf("%s list %d chunk %d: %d samples, decimal %v, one-sample %v; want %d, %v, %v",
						sd.ID.Key(), l, k, oc.Count, oc.Decimal, oc.OneSample, wc.Count, code, l > 0)
				}
				if wc.Decimal {
					decimal++
				}
			}
		}
		sameSamples(t, old, cur, sd.ID)
		for _, tier := range []int64{timeseries.TierStep1m, timeseries.TierStep1h} {
			sameWindows(t, old, cur, sd.ID, tier, fleetT0+compatTicks*step)
		}
	}
	if decimal == 0 {
		t.Fatal("this commit coded no chunk of the compat store as decimals")
	}
}

// TestV4TierChunksKeepTheirLayout: a v4 tier chunk that was still open when
// its snapshot was written takes the windows sealed after recovery in its own
// layout until it fills — every one of its one-sample windows whole — and the
// chunk after it opens in the one-sample window layout. The store answers
// every raw sample and window as this commit's store of the same input does.
func TestV4TierChunksKeepTheirLayout(t *testing.T) {
	const step = 60_000
	dir := t.TempDir()
	compatStore(t, dir, step)
	parent, err := os.ReadFile(v4OneSampleSnapshot)
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
	oldChunks := len(re.Store().Dump()[0].Tiers[0].Chunks)
	vals := newFleetValues(compatSeries)
	for tick := 0; tick < compatTicks; tick++ {
		vals.next()
	}
	const more = 2 * timeseries.DefaultChunkSize
	compatFeed(t, vals, compatTicks, compatTicks+more, step, re, mine)
	for _, sd := range re.Store().Dump() {
		chunks := sd.Tiers[0].Chunks
		if len(chunks) <= oldChunks {
			t.Fatalf("%s: the 1m tier has %d chunks after %d more minutes, %d before", sd.ID.Key(), len(chunks), more, oldChunks)
		}
		for k, cd := range chunks {
			if old := k < oldChunks; cd.OneSample == old || old && cd.Count != timeseries.DefaultChunkSize {
				t.Fatalf("%s: 1m tier chunk %d of %d (%d loaded): %d records, one-sample layout %v", sd.ID.Key(), k, len(chunks), oldChunks, cd.Count, cd.OneSample)
			}
		}
		sameSamples(t, re.Store(), mine.Store(), sd.ID)
		for _, tier := range []int64{timeseries.TierStep1m, timeseries.TierStep1h} {
			sameWindows(t, re.Store(), mine.Store(), sd.ID, tier, fleetT0+(compatTicks+more)*step)
		}
	}
}

// TestSnapshotRefusesUnknownChunkTag: a v5 chunk tag with a bit this build
// does not define fails the payload, rather than loading as a code or
// layout it is not.
func TestSnapshotRefusesUnknownChunkTag(t *testing.T) {
	dump := []timeseries.SeriesDump{{ID: metric.ID{Name: "x"}, Chunks: []timeseries.ChunkDump{{Count: 1, Data: []byte{1}}}}}
	plain := encodeSnapshot(120, dump)
	dump[0].Chunks[0].Decimal = true
	tagged := encodeSnapshot(120, dump)
	at := 0 // the tag byte: the only byte that differs
	for at < len(plain) && at < len(tagged) && plain[at] == tagged[at] {
		at++
	}
	if len(plain) != len(tagged) || at == len(plain) || tagged[at] != tagDecimal || !bytes.Equal(plain[at+1:], tagged[at+1:]) {
		t.Fatalf("tag byte not found: %x against %x", tagged, plain)
	}
	if _, back, err := decodeSnapshot(tagged, snapVersion); err != nil || !back[0].Chunks[0].Decimal {
		t.Fatalf("decimal tag: %v, %+v", err, back)
	}
	tagged[at] = 1 << 2
	if _, _, err := decodeSnapshot(tagged, snapVersion); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("decodeSnapshot with tag bit 2 = %v, want a refusal", err)
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

// sameWindows requires two stores to answer id's windows of one rollup step
// up to to, from the same plan and with the same partials, bit for bit.
func sameWindows(t *testing.T, a, b *timeseries.Store, id metric.ID, step, to int64) {
	t.Helper()
	from := int64(fleetT0) / step * step
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

// TestDecodeDumpReadsV4Payload: a replica bootstraps from the snapshot
// payload its leader ships, which carries no version. A v4 payload — here
// the committed v4 file at 60 s, without its magic and checksum — decodes
// through DecodeDump and restores, so a replica may be upgraded before its
// leader (README).
func TestDecodeDumpReadsV4Payload(t *testing.T) {
	data, err := os.ReadFile(v4OneSampleSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	chunkSize, dump, err := DecodeDump(data[len(snapMagicV4) : len(data)-4])
	if err != nil {
		t.Fatal(err)
	}
	st, err := timeseries.RestoreStore(chunkSize, dump)
	if err != nil {
		t.Fatalf("restore of a v4 payload: %v", err)
	}
	if st.NumSeries() != compatSeries+1 || st.NumSamples() != (compatSeries+1)*compatTicks {
		t.Fatalf("v4 payload restored %d series, %d samples", st.NumSeries(), st.NumSamples())
	}
}
