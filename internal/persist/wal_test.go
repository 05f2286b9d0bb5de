package persist

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/binenc"
	"repro/internal/metric"
	"repro/internal/timeseries"
)

func testID(name, node string) metric.ID {
	return metric.ID{Name: name, Labels: metric.NewLabels("node", node)}
}

// frameSegment builds a WAL segment image: the magic, then each payload
// length-prefixed and checksummed the way wal.append writes it.
func frameSegment(payloads ...[]byte) []byte {
	buf := []byte(segMagic)
	for _, p := range payloads {
		var hdr [recordHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(p, castagnoli))
		buf = append(append(buf, hdr[:]...), p...)
	}
	return buf
}

// appendColsPayload encodes samples through the live writer's encoder.
func appendColsPayload(samples []refSample) []byte {
	refs := make([]uint64, len(samples))
	entries := make([]timeseries.RefEntry, len(samples))
	for i, s := range samples {
		refs[i] = s.ref
		entries[i] = timeseries.RefEntry{T: s.t, V: s.v}
	}
	p, _ := encodeAppendCols(nil, nil, refs, entries)
	return p
}

// mustReplay is replaySegment for inputs that hold nothing unsupported.
func mustReplay(t testing.TB, data []byte, apply func(walRecord)) replayResult {
	t.Helper()
	res, err := replaySegment(data, apply)
	if err != nil {
		t.Fatalf("replaySegment: %v", err)
	}
	return res
}

func TestRecordRoundTrip(t *testing.T) {
	entries := []refSample{
		{ref: 1, t: 1000, v: 220.5},
		{ref: 2, t: 1000, v: 198.25},
		{ref: 1 << 40, t: -5000, v: math.Inf(1)},
	}
	cases := []struct {
		name    string
		payload []byte
		check   func(t *testing.T, rec walRecord)
	}{
		{"define", encodeDefine(nil, 7, testID("power", "n01"), metric.Counter, metric.UnitWatt), func(t *testing.T, rec walRecord) {
			if rec.op != opDefine || rec.ref != 7 || !reflect.DeepEqual(rec.id, testID("power", "n01")) ||
				rec.kind != metric.Counter || rec.unit != metric.UnitWatt {
				t.Fatalf("define round trip mismatch: %+v", rec)
			}
		}},
		{"append", appendColsPayload(entries), func(t *testing.T, rec walRecord) {
			if rec.op != opAppendCols || !reflect.DeepEqual(rec.refEntries, entries) {
				t.Fatalf("append round trip mismatch: %+v", rec)
			}
		}},
		{"retain", encodeRetain(nil, -123456), func(t *testing.T, rec walRecord) {
			if rec.op != opRetain || rec.cutoff != -123456 {
				t.Fatalf("retain round trip mismatch: %+v", rec)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := decodeRecord(tc.payload, new([]refSample))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			tc.check(t, rec)
		})
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":          nil,
		"unknown op":     {99, 1, 2, 3},
		"truncated":      appendColsPayload([]refSample{{ref: 1, t: 1, v: 2}})[:5],
		"trailing bytes": append(encodeRetain(nil, 7), 0xFF),
	}
	for name, payload := range cases {
		if _, err := decodeRecord(payload, new([]refSample)); err == nil {
			t.Errorf("%s: decode accepted garbage", name)
		}
	}
}

func TestWALSegmentRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, 256, false) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	const nrec = 40
	for i := 0; i < nrec; i++ {
		payload := encodeRetain(nil, int64(i))
		if _, _, err := w.append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSeqFiles(dir, "wal-", ".seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", len(segs))
	}
	var cutoffs []int64
	for _, sg := range segs {
		data, err := os.ReadFile(sg.path)
		if err != nil {
			t.Fatal(err)
		}
		res := mustReplay(t, data, func(rec walRecord) { cutoffs = append(cutoffs, rec.cutoff) })
		if res.torn {
			t.Fatalf("segment %s unexpectedly torn", sg.path)
		}
	}
	if len(cutoffs) != nrec {
		t.Fatalf("replayed %d records, want %d", len(cutoffs), nrec)
	}
	for i, c := range cutoffs {
		if c != int64(i) {
			t.Fatalf("record %d out of order: got cutoff %d", i, c)
		}
	}
}

func TestReplayTornTailVariants(t *testing.T) {
	valid := func() []byte {
		return frameSegment(encodeRetain(nil, 0), encodeRetain(nil, 1), encodeRetain(nil, 2))
	}

	t.Run("clean", func(t *testing.T) {
		n := 0
		res := mustReplay(t, valid(), func(walRecord) { n++ })
		if res.torn || n != 3 || res.records != 3 {
			t.Fatalf("clean segment misread: torn=%v records=%d", res.torn, res.records)
		}
	})
	t.Run("empty file", func(t *testing.T) {
		res := mustReplay(t, nil, func(walRecord) { t.Fatal("applied record from empty file") })
		if res.torn || res.records != 0 {
			t.Fatalf("empty file should be a clean empty segment: %+v", res)
		}
	})
	t.Run("header only", func(t *testing.T) {
		res := mustReplay(t, []byte(segMagic), func(walRecord) { t.Fatal("applied record") })
		if res.torn || res.records != 0 {
			t.Fatalf("header-only file should be clean: %+v", res)
		}
	})
	t.Run("short magic", func(t *testing.T) {
		res := mustReplay(t, []byte(segMagic[:5]), func(walRecord) { t.Fatal("applied record") })
		if !res.torn || res.records != 0 || res.offset != 0 || res.tornSize != 5 {
			t.Fatalf("a header cut short should be torn with no records: %+v", res)
		}
	})
	t.Run("truncated mid-record", func(t *testing.T) {
		data := valid()
		cut := data[:len(data)-3]
		n := 0
		res := mustReplay(t, cut, func(walRecord) { n++ })
		if !res.torn || n != 2 {
			t.Fatalf("want torn tail with 2 clean records, got torn=%v n=%d", res.torn, n)
		}
		if res.offset >= int64(len(cut)) {
			t.Fatalf("offset %d should mark the clean prefix before %d", res.offset, len(cut))
		}
	})
	t.Run("bit flip in payload", func(t *testing.T) {
		data := valid()
		data[len(data)-1] ^= 0x40 // corrupt the last record's payload
		n := 0
		res := mustReplay(t, data, func(walRecord) { n++ })
		if !res.torn || n != 2 {
			t.Fatalf("want checksum to reject last record, got torn=%v n=%d", res.torn, n)
		}
	})
	t.Run("absurd length prefix", func(t *testing.T) {
		data := append(valid(), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
		n := 0
		res := mustReplay(t, data, func(walRecord) { n++ })
		if !res.torn || n != 3 {
			t.Fatalf("want clean prefix then torn, got torn=%v n=%d", res.torn, n)
		}
	})
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	store := timeseries.NewStore(4)
	for i := 0; i < 11; i++ {
		if err := store.Append(testID("load", "n01"), metric.Gauge, metric.UnitPercent, int64(1000+i*50), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	dump := store.Dump()
	chunkSize, back, err := decodeSnapshot(encodeSnapshot(store.ChunkSize(), dump), snapVersion)
	if err != nil {
		t.Fatal(err)
	}
	if chunkSize != store.ChunkSize() || !reflect.DeepEqual(back, dump) {
		t.Fatalf("snapshot payload round trip diverged")
	}
}

func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	store := timeseries.NewStore(4)
	for i := 0; i < 9; i++ {
		if err := store.Append(testID("load", "n01"), metric.Gauge, metric.UnitPercent, int64(1000+i*50), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := writeSnapshot(dir, 3, store.ChunkSize(), store.Dump()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(3))
	if _, err := loadSnapshot(path, nil); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(path, nil); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
}

func TestWALIntervalSyncSkipsIdleTicks(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, DefaultSegmentSize, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.fsyncs.Load(); got != 0 {
		t.Fatalf("idle tick on empty WAL fsynced %d times", got)
	}
	if _, _, err := w.append(encodeRetain(nil, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.fsyncs.Load(); got != 1 {
		t.Fatalf("dirty tick should fsync once, got %d", got)
	}
	if err := w.sync(); err != nil { // nothing new since the last sync
		t.Fatal(err)
	}
	if got := w.fsyncs.Load(); got != 1 {
		t.Fatalf("idle tick after sync fsynced again: %d", got)
	}
}

func TestWALSyncToCoalesces(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, DefaultSegmentSize, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	seq1, _, err := w.append(encodeRetain(nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	seq2, _, err := w.append(encodeRetain(nil, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.syncTo(seq2); err != nil {
		t.Fatal(err)
	}
	if got := w.fsyncs.Load(); got != 1 {
		t.Fatalf("fsyncs = %d, want 1", got)
	}
	// seq1 was covered by the leader's fsync: free.
	if err := w.syncTo(seq1); err != nil {
		t.Fatal(err)
	}
	if w.fsyncs.Load() != 1 || w.coalesced.Load() != 1 {
		t.Fatalf("covered sync should coalesce: fsyncs=%d coalesced=%d", w.fsyncs.Load(), w.coalesced.Load())
	}
}

func TestLoadSnapshotRejectsTruncatedAndBadMagic(t *testing.T) {
	dir := t.TempDir()
	if _, err := writeSnapshot(dir, 1, 4, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:3], 0o644); err != nil { // shorter than magic+trailer
		t.Fatal(err)
	}
	if _, err := loadSnapshot(path, nil); err == nil {
		t.Fatal("truncated snapshot loaded")
	}
	bad := append([]byte("WRONGMG\n"), data[len(snapMagic):]...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(path, nil); err == nil {
		t.Fatal("bad-magic snapshot loaded")
	}
	if _, err := loadSnapshot(filepath.Join(dir, "missing.snap"), nil); err == nil {
		t.Fatal("missing snapshot loaded")
	}
}

func TestDurableAppendSurfacesRejection(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id := testID("power", "n01")
	if err := d.Append(id, metric.Gauge, metric.UnitWatt, 1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(id, metric.Gauge, metric.UnitWatt, 500, 2); err == nil {
		t.Fatal("out-of-order append must error")
	}
}

// TestSnapshotPayloadTruncationSweep drives decodeSnapshot over every
// truncated prefix of a valid payload: each must either error cleanly or
// (for the full payload) round-trip — never panic or fabricate series.
func TestSnapshotPayloadTruncationSweep(t *testing.T) {
	store := timeseries.NewStore(4)
	for i := 0; i < 13; i++ {
		if err := store.Append(testID("load", "n01"), metric.Gauge, metric.UnitPercent, int64(1000+i*50), float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := store.Append(testID("temp", "n02"), metric.Counter, metric.UnitCelsius, int64(1000+i*50), float64(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	payload := encodeSnapshot(store.ChunkSize(), store.Dump())
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := decodeSnapshot(payload[:cut], snapVersion); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(payload))
		}
	}
	if _, _, err := decodeSnapshot(payload, snapVersion); err != nil {
		t.Fatalf("full payload failed: %v", err)
	}
}

// TestAppendColsBounds: a record whose every sample is one byte — a ref run
// and a decimal value column of single-byte values — decodes, and a record
// that claims more than maxRecordSamples samples is refused before the
// decode scratch grows for them, however many bytes it carries.
func TestAppendColsBounds(t *testing.T) {
	const n = 1000
	samples := make([]refSample, n)
	for i := range samples {
		samples[i] = refSample{ref: uint64(i + 1), t: 5000, v: float64(i % 50)}
	}
	minimal := appendColsPayload(samples)
	if len(minimal) > n+16 {
		t.Fatalf("%d one-byte samples took %d bytes", n, len(minimal))
	}
	rec, err := decodeRecord(minimal, new([]refSample))
	if err != nil || !reflect.DeepEqual(rec.refEntries, samples) {
		t.Fatalf("minimal record of %d bytes: %v", len(minimal), err)
	}

	over := binenc.AppendUvarint([]byte{opAppendCols}, maxRecordSamples+1)
	over = binenc.AppendUvarint(append(over, shapeRefRun|shapeDecimal, 0), 1)
	over = append(over, make([]byte, maxRecordSamples+2)...)
	var scratch []refSample
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeRecord(over, &scratch)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "a record holds") {
		t.Fatalf("record over the cap: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 || cap(scratch) != 0 {
		t.Fatalf("refusing a record over the cap allocated %d bytes (scratch %d)", grew, cap(scratch))
	}
}
