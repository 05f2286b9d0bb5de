package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/binenc"
	"repro/internal/metric"
)

// Protocol v3: per-connection series dictionary, columnar ref batches.
//
// A sender defines each series once on a connection with a FrameDict
// payload, then ships FrameRefBatch payloads that address series by the
// small uint64 ref it assigned — no per-sample (or even per-batch) name,
// label or unit re-encoding. The dictionary is the only per-connection
// state: a redial starts from an empty one on both ends and the client
// re-defines series as it first uses them again, so renegotiation is
// implicit in the framing, and a ref batch decodes from its own bytes and
// the dictionary alone. It is the only way a batch travels: every Client
// sends it, and every server refuses the v1 FrameBatch it replaced.
//
// FrameDict payload:
//
//	ndefs   uvarint
//	per def: ref uvarint, name str, nlabels uvarint, {key str, value str}*,
//	         kind byte, unit str
//
// FrameRefBatch payload, a header and then whole columns (an agent's round —
// consecutive refs, one sample each, one timestamp — is a ref byte and a
// value per sample; a router's forward buffer across ticks carries the
// optional columns it needs):
//
//	agent    str
//	nrecords uvarint
//	shape    byte    bit 0: counts present; bit 1: times present; the rest
//	                 reserved, refused unless zero
//	baseT    varint  the first sample's timestamp (0 if there is none)
//	refs     nrecords × varint   delta from the previous record's ref
//	counts   nrecords × uvarint  samples per record; absent = 1 each
//	times    nsamples × varint   delta from the previous sample in frame
//	                             order (wrapping); absent = all at baseT
//	values   nsamples × 8 bytes  big-endian float64
//
// Defining a ref twice, defining one at or past dictRefLimit and referencing
// an undefined ref are protocol errors that drop the connection — a correct
// client can do none of them, so tolerating them would only mask corruption.

// Shape bits of a FrameRefBatch payload.
const (
	shapeCounts byte = 1 << iota
	shapeTimes
)

// dictRefLimit bounds one connection's refs, so a hostile definition can size
// ConnDict's table to 8 MiB at most and series churn grows neither end without
// limit: the sender redials before assigning this ref, the receiver refuses it.
const dictRefLimit = 1 << 20

// Dictionary protocol errors.
var (
	ErrUnknownRef   = errors.New("wire: ref batch references undefined series ref")
	ErrDictRedefine = errors.New("wire: dictionary redefines existing series ref")
	ErrDictFull     = errors.New("wire: series ref exceeds the per-connection dictionary bound")
)

// ConnDict is the receive side of the dictionary: one per connection,
// populated by FrameDict payloads and consumed by DecodeRefBatch. The zero
// value is an empty dictionary, against which every ref is undefined. Not
// safe for concurrent use; frames on one connection are handled sequentially.
type ConnDict struct {
	defs []*Record // indexed by ref, nil = undefined; Samples is always nil
}

// NewConnDict returns an empty per-connection dictionary.
func NewConnDict() *ConnDict { return &ConnDict{} }

// AddDefs decodes a FrameDict payload into the dictionary and returns how
// many series it defined.
func (d *ConnDict) AddDefs(payload []byte) (int, error) {
	p := binenc.NewReader(payload)
	// A definition is at least a ref plus a series identity (name, label
	// count, kind, unit), one byte each.
	ndefs := p.Count(5)
	defs := make([]Record, ndefs)
	for i := range defs {
		ref := p.Uvarint()
		defs[i] = readSeries(&p)
		if err := p.Err(); err != nil {
			return 0, fmt.Errorf("wire: dictionary: %w", err)
		}
		if ref >= dictRefLimit {
			return 0, fmt.Errorf("%w: ref %d", ErrDictFull, ref)
		}
		if ref >= uint64(len(d.defs)) {
			d.defs = append(d.defs, make([]*Record, ref+1-uint64(len(d.defs)))...)
		}
		if d.defs[ref] != nil {
			return 0, fmt.Errorf("%w: ref %d", ErrDictRedefine, ref)
		}
		// Intern the ID once per connection: every batch decoded against
		// this def reuses the cached key on downstream keyed lookups.
		defs[i].ID = defs[i].ID.Interned()
		d.defs[ref] = &defs[i]
	}
	if err := p.Done(); err != nil {
		return 0, fmt.Errorf("wire: dictionary: %w", err)
	}
	return ndefs, nil
}

// DecodeRefBatch parses a FrameRefBatch payload against the dictionary,
// returning the Batch that was sent (record IDs come from the dictionary
// definitions; an empty record has nil Samples). It allocates per frame, not
// per record: one []Record and one []metric.Sample that the records
// sub-slice.
func (d *ConnDict) DecodeRefBatch(payload []byte) (*Batch, error) {
	p := binenc.NewReader(payload)
	b := &Batch{Agent: p.Str()}
	n := p.Count(2) // a ref byte, and a count byte or a value, per record
	shape := p.Byte()
	if shape&^(shapeCounts|shapeTimes) != 0 {
		return nil, fmt.Errorf("wire: ref batch: reserved shape bits %#02x", shape)
	}
	t := p.Varint()
	b.Records = make([]Record, n)
	var ref uint64
	for i := range b.Records {
		ref += uint64(p.Varint())
		if p.Err() != nil {
			break
		}
		if ref >= uint64(len(d.defs)) || d.defs[ref] == nil {
			return nil, fmt.Errorf("%w: ref %d", ErrUnknownRef, ref)
		}
		b.Records[i] = *d.defs[ref]
	}
	// The count column is read twice: summed here, so the one sample slice is
	// checked against the bytes left before it is made, then again to cut it up.
	total, counts := uint64(n), p
	if shape&shapeCounts != 0 {
		total = 0
		for range b.Records {
			total += uint64(p.Count(8))
		}
	}
	samples := make([]metric.Sample, p.Fit(total, 8)) // a sample is at least its value
	for i := range samples {
		if shape&shapeTimes != 0 {
			t += p.Varint()
		}
		samples[i].T = t
	}
	for i := range samples {
		samples[i].V = p.Float()
	}
	if err := p.Done(); err != nil {
		return nil, fmt.Errorf("wire: ref batch: %w", err)
	}
	for i, lo := 0, 0; i < n; i++ {
		c := 1
		if shape&shapeCounts != 0 {
			c = int(counts.Uvarint())
		}
		if c > 0 { // an empty record keeps nil Samples
			b.Records[i].Samples = samples[lo : lo+c : lo+c]
		}
		lo += c
	}
	return b, nil
}

// appendDef serializes one dictionary definition.
func appendDef(dst []byte, ref uint64, r *Record) []byte {
	return appendSeries(binenc.AppendUvarint(dst, ref), r)
}

// appendRefBatch serializes a FrameRefBatch payload for b, with every
// record's ref already present in refs (keyed by ID.Key()).
func appendRefBatch(dst []byte, b *Batch, refs map[string]uint64) []byte {
	// Which columns the batch needs: counts unless every record holds one
	// sample, times unless every sample carries the first one's timestamp.
	var shape byte
	var baseT int64
	first := true
	for i := range b.Records {
		samples := b.Records[i].Samples
		if len(samples) != 1 {
			shape |= shapeCounts
		}
		for _, sm := range samples {
			if first {
				baseT, first = sm.T, false
			} else if sm.T != baseT {
				shape |= shapeTimes
			}
		}
	}
	dst = binenc.AppendString(dst, b.Agent)
	dst = binenc.AppendUvarint(dst, uint64(len(b.Records)))
	dst = append(dst, shape)
	dst = binenc.AppendVarint(dst, baseT)
	var prevRef uint64
	for i := range b.Records {
		ref := refs[b.Records[i].ID.Key()]
		dst = binenc.AppendVarint(dst, int64(ref-prevRef))
		prevRef = ref
	}
	if shape&shapeCounts != 0 {
		for i := range b.Records {
			dst = binenc.AppendUvarint(dst, uint64(len(b.Records[i].Samples)))
		}
	}
	if shape&shapeTimes != 0 {
		prevT := baseT
		for i := range b.Records {
			for _, sm := range b.Records[i].Samples {
				dst = binenc.AppendVarint(dst, sm.T-prevT)
				prevT = sm.T
			}
		}
	}
	for i := range b.Records {
		for _, sm := range b.Records[i].Samples {
			dst = binenc.AppendFloat(dst, sm.V)
		}
	}
	return dst
}

// clientDict is the send side of one connection: its buffered writer, the
// ref assignments of its dictionary and reused encode scratch. A redial
// replaces it whole, so the new connection starts from an empty dictionary.
type clientDict struct {
	w *bufio.Writer
	// hdr is frame-header scratch: a stack header would escape through the
	// io.Writer interface and cost one alloc per send.
	hdr  [headerLen]byte
	refs map[string]uint64
	next uint64
	body []byte // definition-body scratch (defs minus the count prefix)
	defs []byte // FrameDict payload scratch
	recs []byte // FrameRefBatch payload scratch
}

func newClientDict(w io.Writer) *clientDict {
	return &clientDict{w: bufio.NewWriter(w), refs: make(map[string]uint64)}
}

// send encodes b as (optional) dictionary definitions plus a ref batch,
// coalescing both frames into one flush. Steady state — all series already
// defined on this connection — allocates nothing.
func (d *clientDict) send(b *Batch) error {
	ndefs := 0
	d.body = d.body[:0]
	for i := range b.Records {
		r := &b.Records[i]
		key := r.ID.Key()
		if _, ok := d.refs[key]; ok {
			continue // already defined (possibly earlier in this batch)
		}
		if d.next+1 >= dictRefLimit {
			// The caller marks the connection broken; its redial starts an
			// empty dictionary, which is how a churning sender sheds old refs.
			return ErrDictFull
		}
		d.next++
		d.refs[key] = d.next
		d.body = appendDef(d.body, d.next, r)
		ndefs++
	}
	if ndefs > 0 {
		d.defs = binenc.AppendUvarint(d.defs[:0], uint64(ndefs))
		d.defs = append(d.defs, d.body...)
		if err := d.writeFrame(FrameDict, d.defs); err != nil {
			return err
		}
	}
	d.recs = appendRefBatch(d.recs[:0], b, d.refs)
	if err := d.writeFrame(FrameRefBatch, d.recs); err != nil {
		return err
	}
	return d.w.Flush()
}

// writeFrame buffers one framed payload without flushing.
func (d *clientDict) writeFrame(frameType uint8, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrTooLarge
	}
	putFrameHeader(&d.hdr, frameType, payload)
	if _, err := d.w.Write(d.hdr[:]); err != nil {
		return err
	}
	_, err := d.w.Write(payload)
	return err
}
