// Package persist gives the in-memory TSDB a crash-safe life: a segmented
// write-ahead log capturing every mutating operation, periodic snapshot
// checkpoints that hold the store's own compressed chunks, and recovery
// that rebuilds a byte-identical store from the newest valid snapshot plus
// the WAL segments written after it.
//
// On-disk layout inside the data directory (all integers big endian):
//
//	wal-%08d.seg    WAL segments: 8-byte magic "ODAWAL2\n", then records
//	snap-%08d.snap  snapshots: 8-byte magic "ODASNP5\n", payload, CRC32C
//
// A snapshot's chunks are each tagged with their value code — decimal
// mantissa deltas per value column where the values are exact decimals,
// Gorilla XOR elsewhere — and a tier chunk with its layout, in which a window
// of one sample is coded as that one value. Snapshots headed "ODASNP4\n"
// predate the layout (every window coded whole) and those headed "ODASNP3\n"
// the tag as well (every chunk Gorilla); both still load. A build from before
// v5 refuses a v5 file at its magic.
//
// Segments headed "ODAWAL1\n" were written before opAppendCols existed. They
// still replay, and a retired op-6 record in one is refused. An earlier build,
// which knows only that magic, refuses a current segment as foreign instead of
// truncating it at the first record it cannot read.
//
// Each WAL record is length-prefixed and checksummed:
//
//	length  uint32   payload byte count
//	crc32c  uint32   Castagnoli checksum of the payload
//	payload [length]byte, first byte = op code
//
// Samples have one logged form: an opDefine binds a small WAL ref to a full
// series identity, and opAppendCols records address samples by that ref.
// Every ingest entry point (Append, AppendBatch, AppendRefs) writes it. An
// opAppendCols payload is a header and then whole columns, the grammar of
// the wire's ref batch frame:
//
//	op      byte     opAppendCols
//	n       uvarint  samples in the record
//	shape   byte     bit 0: refs are a run; bit 1: times present; bit 2:
//	                 values decimal; the rest reserved, refused unless zero
//	baseT   varint   the first sample's timestamp (0 if there is none)
//	refs    run:  one uvarint, the first ref; sample i has ref first+i
//	        else: n × varint, delta from the previous sample's ref (wrapping)
//	times   n × varint   delta from baseT (wrapping); absent = all at baseT
//	values  n values, one binenc value column: decimal = an exponent byte
//	        e, then per value m as a varint (the value is m/10^e); raw =
//	        8 bytes big-endian float64 each
//
// A record holds at most maxRecordSamples samples. An agent's scrape —
// consecutive WAL refs, since the durable store hands them out in first-use
// order, and one timestamp — is thus its value column plus a few header
// bytes per record.
//
// Replay tolerates torn tails: the first record whose length prefix,
// checksum or payload decode fails marks the end of the recoverable prefix
// and the segment is truncated there, exactly what a power cut mid-write
// leaves behind. What is intact but not ours fails loudly instead: a
// complete foreign 8-byte magic on a segment or snapshot (the v1 and v2
// snapshots of earlier builds included), or a CRC-valid record carrying a
// retired op code or a reserved shape bit, is ErrUnsupportedFormat — Open
// returns it and leaves the directory untouched rather than truncating data
// another version wrote.
package persist

import (
	"encoding/binary"
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
	// opRetiredAppendRef is reserved the same way: it was the row-wise ref
	// append (per sample a ref, a time delta and a value) that
	// opAppendCols replaced.
	opRetiredAppendRef = 6
	opAppendCols       = 7 // a batch of samples as columns, addressed by WAL ref
)

// Shape bits of an opAppendCols payload.
const (
	shapeRefRun  byte = 1 << iota // refs ascend by one from the first
	shapeTimes                    // a time column follows the refs
	shapeDecimal                  // the value column is decimal
)

// recordHeaderLen is the length + CRC prefix of every WAL record.
const recordHeaderLen = 8

// MaxRecord bounds one WAL record so a corrupt length prefix cannot make
// replay allocate unbounded memory; it comfortably exceeds the largest
// batch the wire protocol admits.
const MaxRecord = 32 << 20

// maxRecordSamples bounds the samples of one opAppendCols record: what a
// record could hold when every value took 8 bytes. A decimal value can take
// one, so MaxRecord alone would let a corrupt count size the decode scratch
// eight times larger.
const maxRecordSamples = MaxRecord / 8

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the same checksum production storage engines use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// nextRecord unframes the WAL record starting at data[off:], returning its
// payload and the offset one past it. ok=false means no intact record starts
// there: a short header, a length prefix over MaxRecord or past the data, or
// a checksum mismatch. That is the torn tail a crash mid-write leaves — and,
// on a live segment, the writing edge — so replay and replication both stop
// at the first such offset.
func nextRecord(data []byte, off int64) (payload []byte, next int64, ok bool) {
	n := int64(len(data))
	if off+recordHeaderLen > n {
		return nil, off, false
	}
	length := int64(binary.BigEndian.Uint32(data[off : off+4]))
	if length > MaxRecord || off+recordHeaderLen+length > n {
		return nil, off, false
	}
	next = off + recordHeaderLen + length
	payload = data[off+recordHeaderLen : next]
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(data[off+4:off+8]) {
		return nil, off, false
	}
	return payload, next, true
}

// ErrUnsupportedFormat reports intact data in a format this version does
// not read: a segment or snapshot with a complete foreign magic, or a
// checksummed WAL record with a retired op code or a reserved shape bit
// (one a later writer may set). It is never returned for
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
	refEntries []refSample // opAppendCols
}

// refSample is one opAppendCols sample: a WAL series ref plus the sample.
type refSample struct {
	ref uint64
	t   int64
	v   float64
}

// RefTable is replay-side WAL-ref state: it maps the uvarint refs that
// opDefine records bind to full series identities, caching the live
// store's SeriesRef per definition. Refs stay valid for the life of a
// store (retention never invalidates them), so one table serves one
// ordered replay stream into one store (an Applier owns one; whoever swaps
// the store starts a fresh Applier). Redefining a ref simply rebinds it
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
	samples []refSample // decode scratch for RecordEntries
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

// encodeAppendCols serializes an opAppendCols payload for entries, entry i
// addressed by WAL ref refs[i]; vals is scratch for the value column,
// returned grown. The columns it leaves out are chosen here: the refs
// collapse to their first when they ascend by one, the times vanish when
// every sample carries the first one's.
func encodeAppendCols(buf []byte, vals []float64, refs []uint64, entries []timeseries.RefEntry) ([]byte, []float64) {
	var shape byte
	var baseT int64
	if len(entries) > 0 {
		shape = shapeRefRun
		baseT = entries[0].T
	}
	vals = vals[:0]
	for i := range entries {
		if refs[i] != refs[0]+uint64(i) {
			shape &^= shapeRefRun
		}
		if entries[i].T != baseT {
			shape |= shapeTimes
		}
		vals = append(vals, entries[i].V)
	}
	buf = append(buf, opAppendCols)
	buf = binenc.AppendUvarint(buf, uint64(len(entries)))
	shapeAt := len(buf)
	buf = append(buf, shape)
	buf = binenc.AppendVarint(buf, baseT)
	if shape&shapeRefRun != 0 {
		buf = binenc.AppendUvarint(buf, refs[0])
	} else {
		var prev uint64
		for _, ref := range refs {
			buf = binenc.AppendVarint(buf, int64(ref-prev))
			prev = ref
		}
	}
	if shape&shapeTimes != 0 {
		for i := range entries {
			buf = binenc.AppendVarint(buf, entries[i].T-baseT)
		}
	}
	buf, decimal := binenc.AppendValues(buf, vals)
	if decimal {
		buf[shapeAt] |= shapeDecimal
	}
	return buf, vals
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
// caller). A retired op code or a reserved shape bit is
// ErrUnsupportedFormat; any other failure
// means the bytes are not a record. An opAppendCols's samples are decoded
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
	case opRetiredAppendRef:
		return rec, fmt.Errorf("%w: wal record with retired op code %d (row-wise ref append)", ErrUnsupportedFormat, rec.op)
	case opAppendCols:
		count := p.Uvarint()
		shape := p.Byte()
		if shape&^(shapeRefRun|shapeTimes|shapeDecimal) != 0 {
			return rec, fmt.Errorf("%w: wal append record with reserved shape bits %#02x", ErrUnsupportedFormat, shape)
		}
		if count > maxRecordSamples {
			return rec, fmt.Errorf("persist: wal append record of %d samples, over the %d a record holds", count, maxRecordSamples)
		}
		n := p.Fit(count, 1) // a sample is at least a byte of its value
		baseT := p.Varint()
		if cap(*scratch) < n {
			*scratch = make([]refSample, n)
		}
		recs := (*scratch)[:n]
		if shape&shapeRefRun != 0 {
			first := p.Uvarint()
			for i := range recs {
				recs[i].ref = first + uint64(i)
			}
		} else {
			var ref uint64
			for i := range recs {
				ref += uint64(p.Varint())
				recs[i].ref = ref
			}
		}
		for i := range recs {
			recs[i].t = baseT
			if shape&shapeTimes != 0 {
				recs[i].t += p.Varint()
			}
		}
		vc := p.ValueCol(shape&shapeDecimal != 0)
		for i := range recs {
			recs[i].v = p.Value(vc)
		}
		rec.refEntries = recs
	default:
		return rec, fmt.Errorf("persist: unknown op %d", rec.op)
	}
	if err := p.Done(); err != nil {
		return rec, fmt.Errorf("persist: wal record op %d: %w", rec.op, err)
	}
	return rec, nil
}
