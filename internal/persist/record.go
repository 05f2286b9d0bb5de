// Package persist gives the in-memory TSDB a crash-safe life: a segmented
// write-ahead log capturing every mutating operation, periodic snapshot
// checkpoints serialized through the store's Gorilla codec, and recovery
// that rebuilds a byte-identical store from the newest valid snapshot plus
// the WAL segments written after it.
//
// On-disk layout inside the data directory (all integers big endian):
//
//	wal-%08d.seg    WAL segments: 8-byte magic "ODAWAL1\n", then records
//	snap-%08d.snap  snapshots: 8-byte magic "ODASNP3\n", payload, CRC32C
//
// Each WAL record is length-prefixed and checksummed:
//
//	length  uint32   payload byte count
//	crc32c  uint32   Castagnoli checksum of the payload
//	payload [length]byte, first byte = op code
//
// Samples have one logged form: an opDefine binds a small WAL ref to a full
// series identity, and opAppendRef records address samples by that ref.
// Every ingest entry point (Append, AppendBatch, AppendRefs) writes it.
//
// Replay tolerates torn tails: the first record whose length prefix,
// checksum or payload decode fails marks the end of the recoverable prefix
// and the segment is truncated there, exactly what a power cut mid-write
// leaves behind. What is intact but not ours fails loudly instead: a
// complete foreign 8-byte magic on a segment or snapshot (the v1 and v2
// snapshots of earlier builds included), or a CRC-valid record carrying a
// retired op code, is ErrUnsupportedFormat — Open returns
// it and leaves the directory untouched rather than truncating data another
// version wrote.
package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/binenc"
	"repro/internal/metric"
	"repro/internal/timeseries"
)

// Op codes, first payload byte of every WAL record.
const (
	// opRetiredKeyed is reserved: it was the keyed append record (a full ID
	// re-encoded per sample), whose writer and reader are gone. The code is
	// never reused, so a log that holds one is recognised — and refused with
	// ErrUnsupportedFormat — instead of being mistaken for a torn tail.
	opRetiredKeyed = 1
	// opRetiredDownsample is reserved the same way: it rewrote one series
	// as window means, an operation the rollup tiers replaced.
	opRetiredDownsample = 2
	opRetain            = 3 // Retain(cutoff)
	opRetainTier        = 4 // RetainTier(step, cutoff)
	opDefine            = 5 // bind a WAL series ref to a full series identity
	opAppendRef         = 6 // a batch of samples, addressed by WAL ref
)

// recordHeaderLen is the length + CRC prefix of every WAL record.
const recordHeaderLen = 8

// MaxRecord bounds one WAL record so a corrupt length prefix cannot make
// replay allocate unbounded memory; it comfortably exceeds the largest
// batch the wire protocol admits.
const MaxRecord = 32 << 20

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the same checksum production storage engines use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrUnsupportedFormat reports intact data in a format this version does
// not read: a segment or snapshot with a complete foreign magic, or a
// checksummed WAL record with a retired op code. It is never returned for
// damage (short header, bad checksum, undecodable payload) — that is a tear.
var ErrUnsupportedFormat = errors.New("persist: unsupported on-disk format")

// walRecord is one decoded WAL operation.
type walRecord struct {
	op         byte
	id         metric.ID   // opDefine
	step       int64       // opRetainTier
	cutoff     int64       // opRetain, opRetainTier
	ref        uint64      // opDefine
	kind       metric.Kind // opDefine
	unit       metric.Unit // opDefine
	refEntries []refSample // opAppendRef
}

// refSample is one opAppendRef sample: a WAL series ref plus the sample.
type refSample struct {
	ref uint64
	t   int64
	v   float64
}

// apply replays one operation onto a store; rt carries the WAL-ref
// dictionary across records of one replay stream. Errors the original
// operation already tolerated (out-of-order rejections, unknown series)
// are tolerated again, so replay reproduces the live store's state exactly.
func (r *walRecord) apply(store *timeseries.Store, rt *RefTable) {
	switch r.op {
	case opRetain:
		store.Retain(r.cutoff)
	case opRetainTier:
		store.RetainTier(r.step, r.cutoff)
	case opDefine:
		rt.define(store, r.ref, r.id, r.kind, r.unit)
	case opAppendRef:
		rt.appendRefs(store, r.refEntries)
	}
}

// RefTable is replay-side WAL-ref state: it maps the uvarint refs that
// opDefine records bind to full series identities, caching the live
// store's SeriesRef per definition. Refs stay valid for the life of a
// store (retention never invalidates them), so one table serves one
// ordered replay stream into one store; whoever swaps the store starts a
// fresh table or Resets this one. Redefining a ref simply rebinds it
// (writers re-number from scratch after a checkpoint or restart, so later
// segments may legitimately reuse small refs); a ref that was never
// defined is skipped like any other tolerated replay inconsistency.
//
// defs holds every definition. Writers hand refs out from 1 upwards, so the
// per-sample lookup does not go through it: dense[ref] is the cached
// SeriesRef of every ref below denseRefLimit (zero, never a valid
// SeriesRef, where unbound), and only refs at or past the limit — which no
// writer of ours produces before its millionth series — pay the map probe.
type RefTable struct {
	defs    map[uint64]refDef
	dense   []timeseries.SeriesRef
	buf     []timeseries.RefEntry // scratch for appendRefs
	samples []refSample           // decode scratch for ApplyRecord / RecordEntries
}

// denseRefLimit bounds RefTable.dense, so a corrupt or hostile ref can size
// it to 8 MiB at most.
const denseRefLimit = 1 << 20

type refDef struct {
	id   metric.ID
	kind metric.Kind
	unit metric.Unit
	sref timeseries.SeriesRef
}

// NewRefTable returns an empty replay dictionary.
func NewRefTable() *RefTable { return &RefTable{defs: make(map[uint64]refDef)} }

// Reset drops all definitions (a replication follower does this when it
// re-bootstraps from a fresh snapshot).
func (rt *RefTable) Reset() {
	clear(rt.defs)
	clear(rt.dense)
}

func (rt *RefTable) define(store *timeseries.Store, ref uint64, id metric.ID, kind metric.Kind, unit metric.Unit) {
	sref, err := store.Resolve(id, kind, unit)
	if err != nil {
		return
	}
	rt.defs[ref] = refDef{id: id, kind: kind, unit: unit, sref: sref}
	rt.bind(ref, sref)
}

// bind caches a small ref's SeriesRef in the dense table.
func (rt *RefTable) bind(ref uint64, sref timeseries.SeriesRef) {
	if ref >= denseRefLimit {
		return
	}
	if ref >= uint64(len(rt.dense)) {
		rt.dense = append(rt.dense, make([]timeseries.SeriesRef, ref+1-uint64(len(rt.dense)))...)
	}
	rt.dense[ref] = sref
}

func (rt *RefTable) appendRefs(store *timeseries.Store, entries []refSample) {
	if cap(rt.buf) < len(entries) {
		rt.buf = make([]timeseries.RefEntry, 0, len(entries))
	}
	rt.buf = rt.buf[:0]
	for i := range entries {
		e := &entries[i]
		var sref timeseries.SeriesRef
		if e.ref < uint64(len(rt.dense)) {
			sref = rt.dense[e.ref]
		} else if e.ref >= denseRefLimit {
			sref = rt.defs[e.ref].sref
		}
		if sref == 0 {
			continue // undefined ref: tolerated, like an unknown series
		}
		rt.buf = append(rt.buf, timeseries.RefEntry{Ref: sref, T: e.t, V: e.v})
	}
	_, _ = store.AppendRefs(rt.buf)
}

// --- payload encoding -------------------------------------------------

// encodeDefine serializes an opDefine payload: the WAL ref binding plus
// the full series identity it stands for from here on.
func encodeDefine(buf []byte, ref uint64, id metric.ID, kind metric.Kind, unit metric.Unit) []byte {
	buf = append(buf, opDefine)
	buf = binenc.AppendUvarint(buf, ref)
	buf = binenc.AppendID(buf, id)
	buf = append(buf, byte(kind))
	return binenc.AppendString(buf, string(unit))
}

// encodeAppendRef serializes an opAppendRef payload: per sample a WAL-ref
// uvarint, a timestamp varint (the first absolute, the rest deltas against
// the previous entry — a scrape shares one timestamp, so the common delta
// is a single zero byte) and the 8-byte value.
func encodeAppendRef(buf []byte, entries []refSample) []byte {
	buf = append(buf, opAppendRef)
	buf = binenc.AppendUvarint(buf, uint64(len(entries)))
	var prevT int64
	for i := range entries {
		e := &entries[i]
		buf = binenc.AppendUvarint(buf, e.ref)
		buf = binenc.AppendVarint(buf, e.t-prevT)
		prevT = e.t
		buf = binenc.AppendFloat(buf, e.v)
	}
	return buf
}

// encodeRetain serializes a Retain payload into buf.
func encodeRetain(buf []byte, cutoff int64) []byte {
	buf = append(buf, opRetain)
	return binenc.AppendVarint(buf, cutoff)
}

// encodeRetainTier serializes a RetainTier payload into buf.
func encodeRetainTier(buf []byte, step, cutoff int64) []byte {
	buf = append(buf, opRetainTier)
	buf = binenc.AppendVarint(buf, step)
	return binenc.AppendVarint(buf, cutoff)
}

// --- payload decoding -------------------------------------------------

// decodeRecord parses one WAL payload (already checksum-verified by the
// caller). A retired op code is ErrUnsupportedFormat; any other failure
// means the bytes are not a record. An opAppendRef's samples are decoded
// into *scratch, grown when the record holds more than it does: the
// record's refEntries alias it and are valid until the stream's next decode.
func decodeRecord(payload []byte, scratch *[]refSample) (walRecord, error) {
	var rec walRecord
	if len(payload) == 0 {
		return rec, io.ErrUnexpectedEOF
	}
	rec.op = payload[0]
	p := binenc.NewReader(payload[1:])
	switch rec.op {
	case opRetiredKeyed:
		return rec, fmt.Errorf("%w: wal record with retired op code %d (keyed append)", ErrUnsupportedFormat, rec.op)
	case opRetiredDownsample:
		return rec, fmt.Errorf("%w: wal record with retired op code %d (downsample)", ErrUnsupportedFormat, rec.op)
	case opRetain:
		rec.cutoff = p.Varint()
	case opRetainTier:
		rec.step = p.Varint()
		rec.cutoff = p.Varint()
	case opDefine:
		rec.ref = p.Uvarint()
		rec.id = p.ID()
		rec.kind = metric.Kind(p.Byte())
		rec.unit = metric.Unit(p.Str())
	case opAppendRef:
		// A ref byte, a timestamp byte and an 8-byte value per sample.
		n := p.Count(10)
		if cap(*scratch) < n {
			*scratch = make([]refSample, n)
		}
		rec.refEntries = (*scratch)[:n]
		var t int64
		for i := range rec.refEntries {
			ref := p.Uvarint()
			t += p.Varint()
			rec.refEntries[i] = refSample{ref: ref, t: t, v: p.Float()}
		}
	default:
		return rec, fmt.Errorf("persist: unknown op %d", rec.op)
	}
	if err := p.Done(); err != nil {
		return rec, fmt.Errorf("persist: wal record op %d: %w", rec.op, err)
	}
	return rec, nil
}
