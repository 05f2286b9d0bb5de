package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/binenc"
	"repro/internal/metric"
	"repro/internal/timeseries"
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
// consecutive refs, one sample each, one timestamp — is one ref and a
// value column; a router's forward buffer across ticks carries the
// optional columns it needs):
//
//	agent    str
//	nrecords uvarint
//	shape    byte    bit 0: counts present; bit 1: times present; bit 2:
//	                 values decimal; bit 3: refs are a run; the rest
//	                 reserved, refused unless zero
//	baseT    varint  the first sample's timestamp (0 if there is none)
//	refs     run:  one uvarint, the first ref; record i has ref first+i
//	         else: nrecords × varint, delta from the previous record's ref
//	counts   nrecords × uvarint  samples per record; absent = 1 each
//	times    nsamples × varint   delta from the previous sample in frame
//	                             order (wrapping); absent = all at baseT
//	values   nsamples values, one binenc value column: decimal = an
//	         exponent byte e, then per value m as a varint (the value is
//	         m/10^e); raw = 8 bytes big-endian float64 each
//
// A frame holds at most maxColumn records and maxColumn samples.
//
// Defining a ref twice, defining one at or past dictRefLimit and referencing
// an undefined ref are protocol errors that drop the connection — a correct
// client can do none of them, so tolerating them would only mask corruption.

// Shape bits of a FrameRefBatch payload.
const (
	shapeCounts byte = 1 << iota
	shapeTimes
	shapeDecimal // the value column is decimal
	shapeRefRun  // refs ascend by one from the first
)

// maxColumn bounds the records and the samples of one frame: what a frame
// could carry when every value took 8 bytes. A decimal value can take one,
// so the payload bound alone would let a hostile frame size the decoder's
// slices eight times larger.
const maxColumn = MaxPayload / 8

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
// populated by FrameDict payloads and read by the column decoder. Each
// definition also holds the sink's SeriesRef for its series, resolved the
// first time a batch uses it and kept until the sink's RefEpoch moves, so a
// steady-state batch decodes straight into the []RefEntry the sink appends.
// The zero value is an empty dictionary, against which every ref is
// undefined. Not safe for concurrent use; frames on one connection are
// handled sequentially.
type ConnDict struct {
	defs  []*dictDef // indexed by ref, nil = undefined
	epoch uint64     // the sink RefEpoch the defs' resolved refs belong to

	// The column decoder's output, reused frame to frame: each record's
	// ref and sample count, and every sample in frame order with its Ref
	// left for resolve to fill.
	recs    []dictRec
	entries []timeseries.RefEntry
}

// dictDef is one definition: the series and, once a batch has used it, the
// sink's ref for it.
type dictDef struct {
	rec Record               // Samples is always nil
	ref timeseries.SeriesRef // 0 until resolved; a sink never hands out 0
}

// dictRec is one decoded record: its dictionary ref and sample count.
type dictRec struct{ ref, n uint32 }

// NewConnDict returns an empty per-connection dictionary.
func NewConnDict() *ConnDict { return &ConnDict{} }

// AddDefs decodes a FrameDict payload into the dictionary and returns how
// many series it defined.
func (d *ConnDict) AddDefs(payload []byte) (int, error) {
	p := binenc.NewReader(payload)
	// A definition is at least a ref plus a series identity (name, label
	// count, kind, unit), one byte each.
	ndefs := p.Count(5)
	defs := make([]dictDef, ndefs)
	for i := range defs {
		ref := p.Uvarint()
		defs[i].rec = readSeries(&p)
		if err := p.Err(); err != nil {
			return 0, fmt.Errorf("wire: dictionary: %w", err)
		}
		if ref >= dictRefLimit {
			return 0, fmt.Errorf("%w: ref %d", ErrDictFull, ref)
		}
		if ref >= uint64(len(d.defs)) {
			d.defs = append(d.defs, make([]*dictDef, ref+1-uint64(len(d.defs)))...)
		}
		if d.defs[ref] != nil {
			return 0, fmt.Errorf("%w: ref %d", ErrDictRedefine, ref)
		}
		// Intern the ID once per connection: the sink's Resolve and every
		// keyed lookup after it reuse the cached key.
		defs[i].rec.ID = defs[i].rec.ID.Interned()
		d.defs[ref] = &defs[i]
	}
	if err := p.Done(); err != nil {
		return 0, fmt.Errorf("wire: dictionary: %w", err)
	}
	return ndefs, nil
}

// decode is the one column decoder: it parses a FrameRefBatch payload
// against the dictionary into d.recs and d.entries and returns the agent
// name, a view of the payload. Every count is checked against the bytes
// left and against maxColumn before the scratch grows for it. Steady state
// allocates nothing.
func (d *ConnDict) decode(payload []byte) (agent []byte, err error) {
	p := binenc.NewReader(payload)
	agent = p.View()
	n := p.Count(1) // a ref, a count or a value byte per record
	shape := p.Byte()
	if shape&^(shapeCounts|shapeTimes|shapeDecimal|shapeRefRun) != 0 {
		return nil, fmt.Errorf("wire: ref batch: reserved shape bits %#02x", shape)
	}
	if n > maxColumn {
		return nil, fmt.Errorf("wire: ref batch: %d records, over the %d a frame holds", n, maxColumn)
	}
	t := p.Varint()
	d.recs = slices.Grow(d.recs[:0], n)[:n]
	var first, ref uint64
	if shape&shapeRefRun != 0 {
		first = p.Uvarint()
	}
	for i := range d.recs {
		if shape&shapeRefRun != 0 {
			ref = first + uint64(i)
		} else {
			ref += uint64(p.Varint())
		}
		if p.Err() != nil {
			break
		}
		if ref >= uint64(len(d.defs)) || d.defs[ref] == nil {
			return nil, fmt.Errorf("%w: ref %d", ErrUnknownRef, ref)
		}
		d.recs[i] = dictRec{ref: uint32(ref), n: 1}
	}
	// The counts are summed before the sample scratch grows, so it is
	// checked against the bytes left first.
	total := uint64(n)
	if shape&shapeCounts != 0 {
		total = 0
		for i := range d.recs {
			c := p.Count(1)
			d.recs[i].n = uint32(c)
			total += uint64(c)
		}
	}
	if total > maxColumn {
		return nil, fmt.Errorf("wire: ref batch: %d samples, over the %d a frame holds", total, maxColumn)
	}
	ns := p.Fit(total, 1) // a sample is at least a value byte
	d.entries = slices.Grow(d.entries[:0], ns)[:ns]
	for i := range d.entries {
		if shape&shapeTimes != 0 {
			t += p.Varint()
		}
		d.entries[i] = timeseries.RefEntry{T: t}
	}
	vc := p.ValueCol(shape&shapeDecimal != 0)
	for i := range d.entries {
		d.entries[i].V = p.Value(vc)
	}
	if err := p.Done(); err != nil {
		return nil, fmt.Errorf("wire: ref batch: %w", err)
	}
	return agent, nil
}

// resolve addresses the decoded samples to sink: each record's definition
// resolves the first time a batch carries a sample of it — in record order,
// so a durable sink logs its definitions in the order the batches first
// carry them, and an empty record resolves nothing — and every resolved ref
// is forgotten when sink's RefEpoch moves. It returns the entries to append,
// or the first error Resolve returned; the definitions resolved before it
// stay resolved.
func (d *ConnDict) resolve(sink Sink) ([]timeseries.RefEntry, error) {
	if epoch := sink.RefEpoch(); epoch != d.epoch {
		for _, def := range d.defs {
			if def != nil {
				def.ref = 0
			}
		}
		d.epoch = epoch
	}
	lo := uint32(0)
	for _, r := range d.recs {
		if r.n == 0 {
			continue
		}
		def := d.defs[r.ref]
		if def.ref == 0 {
			ref, err := sink.Resolve(def.rec.ID, def.rec.Kind, def.rec.Unit)
			if err != nil {
				return nil, err
			}
			def.ref = ref
		}
		for i := lo; i < lo+r.n; i++ {
			d.entries[i].Ref = def.ref
		}
		lo += r.n
	}
	return d.entries, nil
}

// DecodeRefBatch parses a FrameRefBatch payload against the dictionary and
// returns the Batch that was sent (record IDs come from the dictionary
// definitions; an empty record has nil Samples). It is a view built from the
// column decoder the server runs, which hands the sink RefEntries instead;
// nothing in the module calls it, and it stays only for bench/trace until
// ROADMAP item 21 retires that copy of the server's frame loop. It
// allocates per frame, not per record.
func (d *ConnDict) DecodeRefBatch(payload []byte) (*Batch, error) {
	agent, err := d.decode(payload)
	if err != nil {
		return nil, err
	}
	b := &Batch{Agent: string(agent), Records: make([]Record, len(d.recs))}
	samples := make([]metric.Sample, len(d.entries))
	for i, e := range d.entries {
		samples[i] = metric.Sample{T: e.T, V: e.V}
	}
	lo := uint32(0)
	for i, r := range d.recs {
		b.Records[i] = d.defs[r.ref].rec
		if r.n > 0 { // an empty record keeps nil Samples
			b.Records[i].Samples = samples[lo : lo+r.n : lo+r.n]
		}
		lo += r.n
	}
	return b, nil
}

// appendDef serializes one dictionary definition.
func appendDef(dst []byte, ref uint64, r *Record) []byte {
	return appendSeries(binenc.AppendUvarint(dst, ref), r)
}

// frameCols is appendRefBatch's scratch, reused across frames.
type frameCols struct {
	refs []uint64  // each record's ref
	vals []float64 // every sample's value, in frame order
}

// appendRefBatch serializes a FrameRefBatch payload for b, with every
// record's ref already present in refs (keyed by ID.Key()).
func (c *frameCols) appendRefBatch(dst []byte, b *Batch, refs map[string]uint64) []byte {
	// Which columns the batch needs: counts unless every record holds one
	// sample, times unless every sample carries the first one's timestamp,
	// ref deltas unless the refs ascend by one.
	var shape byte
	var baseT int64
	first := true
	c.refs, c.vals = c.refs[:0], c.vals[:0]
	if len(b.Records) > 0 {
		shape = shapeRefRun
	}
	for i := range b.Records {
		ref := refs[b.Records[i].ID.Key()]
		c.refs = append(c.refs, ref)
		if ref != c.refs[0]+uint64(i) {
			shape &^= shapeRefRun
		}
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
			c.vals = append(c.vals, sm.V)
		}
	}
	dst = binenc.AppendString(dst, b.Agent)
	dst = binenc.AppendUvarint(dst, uint64(len(b.Records)))
	shapeAt := len(dst)
	dst = append(dst, shape)
	dst = binenc.AppendVarint(dst, baseT)
	if shape&shapeRefRun != 0 {
		dst = binenc.AppendUvarint(dst, c.refs[0])
	} else {
		var prevRef uint64
		for _, ref := range c.refs {
			dst = binenc.AppendVarint(dst, int64(ref-prevRef))
			prevRef = ref
		}
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
	dst, decimal := binenc.AppendValues(dst, c.vals)
	if decimal {
		dst[shapeAt] |= shapeDecimal
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
	cols frameCols
}

func newClientDict(w io.Writer) *clientDict {
	return &clientDict{w: bufio.NewWriter(w), refs: make(map[string]uint64)}
}

// send encodes b as (optional) dictionary definitions plus a ref batch,
// coalescing both frames into one flush. Steady state — all series already
// defined on this connection — allocates nothing.
func (d *clientDict) send(b *Batch) error {
	samples := 0
	for i := range b.Records {
		samples += len(b.Records[i].Samples)
	}
	if len(b.Records) > maxColumn || samples > maxColumn {
		return ErrTooLarge // the receiver would refuse the frame
	}
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
	d.recs = d.cols.appendRefBatch(d.recs[:0], b, d.refs)
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
