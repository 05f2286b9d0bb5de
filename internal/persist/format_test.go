package persist

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
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
	app := encodeAppendRef(nil, []refSample{{ref: 1, t: 1000, v: 1}, {ref: 1, t: 2000, v: 2}})
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
// refuse a shipped record with the retired op code the same way.
func TestShippedRetiredRecordRefused(t *testing.T) {
	if err := ApplyRecord(timeseries.NewStore(8), NewRefTable(), retiredKeyedPayload()); !errors.Is(err, ErrUnsupportedFormat) {
		t.Fatalf("ApplyRecord = %v, want ErrUnsupportedFormat", err)
	}
	if _, err := RecordEntries(NewRefTable(), retiredKeyedPayload()); !errors.Is(err, ErrUnsupportedFormat) {
		t.Fatalf("RecordEntries = %v, want ErrUnsupportedFormat", err)
	}
}
