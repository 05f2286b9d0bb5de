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

// parentSnapshot is a snapshot file written by the commit before PR 14
// rewrote the chunk encoder (GEN_PARENT_SNAPSHOT=1 go test -run
// TestSnapshotAcrossEncoderRewrite, at that commit, wrote it).
const parentSnapshot = "testdata/snapshot-before-pr14.snap"

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

// TestSnapshotAcrossEncoderRewrite shows snapshots cross the encoder rewrite
// in both directions. A snapshot the parent wrote loads here: loadSnapshot
// runs RestoreStore, which re-encodes every chunk through the new writer and
// refuses the file if one byte differs. And the snapshot this commit writes
// for the same input is the parent's file byte for byte, so the parent —
// whose own restore accepts what its own writer produced — loads it too.
func TestSnapshotAcrossEncoderRewrite(t *testing.T) {
	dir := t.TempDir()
	compatStore(t, dir)
	written, err := os.ReadFile(onlySnapshot(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("GEN_PARENT_SNAPSHOT") != "" {
		if err := os.WriteFile(parentSnapshot, written, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", parentSnapshot, len(written))
	}
	parent, err := os.ReadFile(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, parent) {
		t.Fatalf("this commit's snapshot (%d bytes) differs from the parent's (%d bytes) for the same input", len(written), len(parent))
	}

	// Load the parent's file through the whole of recovery, from a directory
	// that holds nothing else.
	fromParent := t.TempDir()
	if err := os.WriteFile(filepath.Join(fromParent, filepath.Base(onlySnapshot(t, dir))), parent, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(fromParent, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("open on the parent's snapshot: %v", err)
	}
	defer re.Crash()
	if st := re.Stats(); !st.SnapshotLoaded || st.SnapshotLoadDuration <= 0 {
		t.Fatalf("parent snapshot not loaded: %+v", st)
	}
	mine, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer mine.Crash()
	// Compared encoded: the accumulators hold NaNs, which DeepEqual tells apart.
	got, want := re.Store().Dump(), mine.Store().Dump()
	if len(got) != 25 || !bytes.Equal(EncodeDump(120, got), EncodeDump(120, want)) {
		t.Fatalf("store from the parent's snapshot (%d series) differs from this commit's (%d series)", len(got), len(want))
	}
}
