package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/binenc"
	"repro/internal/metric"
	"repro/internal/timeseries"
)

// hashDir fingerprints a directory: every entry's name and content hash.
func hashDir(t *testing.T, dir string) map[string][sha256.Size]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][sha256.Size]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = sha256.Sum256(data)
	}
	return out
}

// v1Snapshot hand-encodes a snapshot in the retired v1 layout — magic
// "ODASNP1\n", the v2 payload minus the per-series tier section — with a
// valid checksum, i.e. a file an older build really wrote.
func v1Snapshot(t *testing.T) []byte {
	t.Helper()
	store := timeseries.NewStore(8)
	for i := 0; i < 30; i++ {
		if err := store.Append(testID("load", "n01"), metric.Gauge, metric.UnitPercent, int64(1000+i*50), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	dump := store.Dump()
	payload := binenc.AppendUvarint(nil, uint64(store.ChunkSize()))
	payload = binenc.AppendUvarint(payload, uint64(len(dump)))
	for _, sd := range dump {
		payload = binenc.AppendID(payload, sd.ID)
		payload = append(payload, byte(sd.Kind))
		payload = binenc.AppendString(payload, string(sd.Unit))
		payload = appendChunks(payload, sd.Chunks)
	}
	data := append([]byte("ODASNP1\n"), payload...)
	return binary.BigEndian.AppendUint32(data, crc32.Checksum(payload, castagnoli))
}

// TestOpenRefusesUnsupportedFormats: intact data in a format this version
// does not read is neither loaded, nor skipped, nor truncated as a torn
// tail. Open fails with ErrUnsupportedFormat and the directory — including
// the readable files beside the refused one — is byte-identical afterwards.
func TestOpenRefusesUnsupportedFormats(t *testing.T) {
	def := encodeDefine(nil, 1, testID("power", "n01"), metric.Gauge, metric.UnitWatt)
	app := appendColsPayload([]refSample{{ref: 1, t: 1000, v: 1}, {ref: 1, t: 2000, v: 2}})
	good := frameSegment(def, app)
	v2, err := os.ReadFile(v2Snapshot) // a file an older build really wrote
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		files map[string][]byte
		names string // what the error must say it found
	}{
		{"v1 snapshot", map[string][]byte{
			snapshotName(1): v1Snapshot(t),
			segmentName(1):  good,
		}, `"ODASNP1\n"`},
		{"v2 snapshot", map[string][]byte{
			snapshotName(1): v2,
			segmentName(1):  good,
		}, `"ODASNP2\n"`},
		{"foreign segment magic", map[string][]byte{
			segmentName(1): good,
			segmentName(2): append([]byte("ODAWAL9\n"), good[len(segMagic):]...),
		}, `"ODAWAL9\n"`},
		{"retired op record", map[string][]byte{
			segmentName(1): frameSegment(def, app, retiredKeyedPayload(), app),
		}, "retired op code 1"},
		{"retired downsample record", map[string][]byte{
			segmentName(1): frameSegment(def, app, retiredOp2Payload(), app),
		}, "retired op code 2"},
		{"retired row-wise ref append record", map[string][]byte{
			segmentName(1): frameSegment(def, app, retiredRefPayload(), app),
		}, "retired op code 6"},
		{"append record with a reserved shape bit", map[string][]byte{
			segmentName(1): frameSegment(def, app, reservedShapePayload(), app),
		}, "reserved shape bits 0x0d"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := hashDir(t, dir)
			d, err := Open(dir, Options{ChunkSize: 8, Fsync: FsyncNever})
			if !errors.Is(err, ErrUnsupportedFormat) {
				if d != nil {
					d.Crash()
				}
				t.Fatalf("Open = %v, want ErrUnsupportedFormat", err)
			}
			if !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("Open = %v, which does not name what it refused (%s)", err, tc.names)
			}
			if after := hashDir(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused Open changed the directory:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// TestShippedRetiredRecordRefused: the replication and join-import decoders
// refuse a shipped record with a retired op code the same way.
func TestShippedRetiredRecordRefused(t *testing.T) {
	for _, payload := range [][]byte{retiredKeyedPayload(), retiredOp2Payload(), retiredRefPayload(), reservedShapePayload()} {
		if err := NewApplier(timeseries.NewStore(8)).Apply(payload); !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("op %d: Applier.Apply = %v, want ErrUnsupportedFormat", payload[0], err)
		}
		if _, err := RecordEntries(NewRefTable(), payload); !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("op %d: RecordEntries = %v, want ErrUnsupportedFormat", payload[0], err)
		}
	}
}

// TestOpenReadsV1Segments: a segment an earlier build wrote, headed
// "ODAWAL1\n", still replays, and what this build logs after it lands in a
// new segment headed segMagic — a magic such a build refuses as foreign
// instead of truncating the records it cannot read.
func TestOpenReadsV1Segments(t *testing.T) {
	dir := t.TempDir()
	id := testID("power", "n01")
	seg := frameSegment(encodeDefine(nil, 1, id, metric.Gauge, metric.UnitWatt), encodeRetain(nil, 500))
	v1 := append([]byte(segMagicV1), seg[len(segMagic):]...)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{ChunkSize: 8, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("Open of a V1 segment: %v", err)
	}
	if got := d.Store().NumSeries(); got != 1 {
		t.Fatalf("V1 segment replayed %d series, want 1", got)
	}
	if err := d.Append(id, metric.Gauge, metric.UnitWatt, 1000, 1); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	data, err := os.ReadFile(filepath.Join(dir, segmentName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if segMagic == segMagicV1 || !strings.HasPrefix(string(data), segMagic) {
		t.Fatalf("new segment opens %q, want %q", data[:len(segMagic)], segMagic)
	}
	d, err = Open(dir, Options{ChunkSize: 8, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Store().NumSamples(); got != 1 {
		t.Fatalf("recovered %d samples, want 1", got)
	}
}

// rawValueSegment is the WAL segment rawValueLog left in its directory at
// the build before the decimal value column and the opAppendCols shape bit
// that marks it: every append record in it carries raw 8-byte values.
const rawValueSegment = "testdata/wal-raw-values.seg"

// rawValueLog ingests the store rawValueSegment holds into a fresh
// DurableStore in dir and crashes it, so the directory holds the WAL alone,
// and returns the live store's encoded dump: 8 fleet-style series and one
// series of values no decimal column takes, for 120 ticks. Every fifth tick
// logs its batch in reverse, every third logs the odd series half a second
// late, so the segment holds ref runs, ref deltas and time columns.
func rawValueLog(t *testing.T, dir string) []byte {
	t.Helper()
	opts := Options{Fsync: FsyncNever, StoreOptions: []timeseries.Option{timeseries.WithRollups(timeseries.TierStep1m)}}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const series = 8
	vals := newFleetValues(series)
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, math.MaxFloat64, 1, 0.1, 1 << 53}
	var batch []timeseries.BatchEntry
	for tick := 0; tick < 120; tick++ {
		vals.next()
		ts := int64(fleetT0 + tick*fleetStepMs)
		batch = batch[:0]
		for i := 0; i < series; i++ {
			batch = append(batch, timeseries.BatchEntry{ID: fleetID(i/4, i%4), Kind: metric.Gauge, Unit: metric.UnitWatt, T: ts, V: vals.value[i]})
		}
		oddT := ts
		if tick%3 == 0 {
			oddT += 500
		}
		batch = append(batch, timeseries.BatchEntry{ID: metric.ID{Name: "odd_values"}, Kind: metric.Gauge, Unit: metric.UnitWatt, T: oddT, V: odd[tick%len(odd)]})
		if tick%5 == 0 {
			slices.Reverse(batch)
		}
		if n, err := d.AppendBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("tick %d: appended %d of %d: %v", tick, n, len(batch), err)
		}
	}
	dump := EncodeDump(120, d.Store().Dump())
	d.Crash()
	return dump
}

// TestOpenReadsRawValueSegment: a segment the build before the decimal value
// column wrote replays, through the whole of recovery, to the store that
// build held — and this build logs the same input in fewer bytes.
func TestOpenReadsRawValueSegment(t *testing.T) {
	parent, err := os.ReadFile(rawValueSegment)
	if err != nil {
		t.Fatal(err)
	}
	// What the fixture is for: 120 append records, every one raw, with and
	// without a ref run and a time column.
	shapes := map[byte]int{}
	for off := int64(len(segMagic)); off < int64(len(parent)); {
		payload, next, ok := nextRecord(parent, off)
		if !ok {
			t.Fatalf("fixture torn at offset %d", off)
		}
		if payload[0] == opAppendCols {
			_, k := binary.Uvarint(payload[1:])
			shapes[payload[1+k]]++
		}
		off = next
	}
	if len(shapes) != 4 || shapes[0]+shapes[shapeRefRun]+shapes[shapeTimes]+shapes[shapeRefRun|shapeTimes] != 120 {
		t.Fatalf("fixture append record shapes %v, want 120 raw records of all four ref and time shapes", shapes)
	}

	mine := t.TempDir()
	want := rawValueLog(t, mine)
	written, err := os.ReadFile(filepath.Join(mine, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(written) >= len(parent) {
		t.Fatalf("this build logs %d bytes where the fixture holds %d", len(written), len(parent))
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), parent, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{Fsync: FsyncNever, StoreOptions: []timeseries.Option{timeseries.WithRollups(timeseries.TierStep1m)}})
	if err != nil {
		t.Fatalf("open on the fixture segment: %v", err)
	}
	defer d.Crash()
	// Compared encoded: the odd series holds NaNs, which DeepEqual tells apart.
	if got := EncodeDump(120, d.Store().Dump()); !bytes.Equal(got, want) {
		t.Fatal("store recovered from the fixture differs from the store that logged it")
	}
}
