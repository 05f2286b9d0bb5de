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

// v3Snapshot is the snapshot file PR 16 — the commit that moved rollup tier
// chunks to the column-predicted layout and the magic to "ODASNP3\n" — wrote
// for compatStore (GEN_V3_SNAPSHOT=1 go test -run
// TestSnapshotAcrossEncoderRewrite, at that commit, wrote it). v2Snapshot is
// the file the commit before PR 14 wrote for the same input, in the format
// this build refuses (TestOpenRefusesUnsupportedFormats).
const (
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

// TestSnapshotAcrossEncoderRewrite pins the snapshot format across encoder
// rewrites in both directions. The committed v3 file loads here: loadSnapshot
// runs RestoreStore, which re-encodes every chunk, raw and tier, through
// today's writer and refuses the file if one byte differs. And the snapshot
// this commit writes for the same input is that file byte for byte, so the
// commit that wrote it — whose own restore accepts what its own writer
// produced — loads ours too. A change that moves either is a new format.
func TestSnapshotAcrossEncoderRewrite(t *testing.T) {
	dir := t.TempDir()
	compatStore(t, dir)
	written, err := os.ReadFile(onlySnapshot(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("GEN_V3_SNAPSHOT") != "" {
		if err := os.WriteFile(v3Snapshot, written, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", v3Snapshot, len(written))
	}
	parent, err := os.ReadFile(v3Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, parent) {
		t.Fatalf("this commit's snapshot (%d bytes) differs from the committed one (%d bytes) for the same input", len(written), len(parent))
	}

	// Load the committed file through the whole of recovery, from a directory
	// that holds nothing else.
	fromParent := t.TempDir()
	if err := os.WriteFile(filepath.Join(fromParent, filepath.Base(onlySnapshot(t, dir))), parent, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(fromParent, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("open on the committed snapshot: %v", err)
	}
	defer re.Crash()
	if st := re.Stats(); !st.SnapshotLoaded || st.SnapshotLoadDuration <= 0 {
		t.Fatalf("committed snapshot not loaded: %+v", st)
	}
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
