package wire

import (
	"errors"
	"fmt"

	"repro/internal/binenc"
)

// Protocol v2: per-connection series dictionary.
//
// A v2 sender defines each series once on a connection with a FrameDict
// payload, then ships FrameRefBatch payloads that address series by the
// small uint64 ref it assigned — no per-sample (or even per-batch) name,
// label or unit re-encoding. Dictionary state is strictly per connection:
// a redial starts from an empty dictionary on both ends and the client
// re-defines series as it first uses them again, so renegotiation is
// implicit in the framing. v1 FrameBatch senders interoperate unchanged.
//
// FrameDict payload:
//
//	ndefs   uvarint
//	per def: ref uvarint, name str, nlabels uvarint, {key str, value str}*,
//	         kind byte, unit str
//
// FrameRefBatch payload:
//
//	agent    str
//	nrecords uvarint
//	per record: ref uvarint, nsamples uvarint,
//	            samples: varint t (first absolute, then deltas) + 8-byte value
//
// Defining a ref twice on one connection and referencing an undefined ref
// are both protocol errors that drop the connection — a correct client can
// do neither, so tolerating them would only mask corruption.

// Dictionary protocol errors.
var (
	ErrUnknownRef   = errors.New("wire: ref batch references undefined series ref")
	ErrDictRedefine = errors.New("wire: dictionary redefines existing series ref")
)

// ConnDict is the receive side of the v2 dictionary: one per connection,
// populated by FrameDict payloads and consumed by DecodeRefBatch. Not safe
// for concurrent use; frames on one connection are handled sequentially.
type ConnDict struct {
	defs map[uint64]Record // series identities; Samples is always nil
}

// NewConnDict returns an empty per-connection dictionary.
func NewConnDict() *ConnDict { return &ConnDict{defs: make(map[uint64]Record)} }

// Len returns how many series the connection has defined.
func (d *ConnDict) Len() int { return len(d.defs) }

// AddDefs decodes a FrameDict payload into the dictionary and returns how
// many series it defined.
func (d *ConnDict) AddDefs(payload []byte) (int, error) {
	p := binenc.NewReader(payload)
	// A definition is at least a ref plus a series identity (name, label
	// count, kind, unit), one byte each.
	ndefs := p.Count(5)
	for i := 0; i < ndefs; i++ {
		ref := p.Uvarint()
		def := readSeries(&p)
		if err := p.Err(); err != nil {
			return 0, fmt.Errorf("wire: dictionary: %w", err)
		}
		if _, dup := d.defs[ref]; dup {
			return 0, fmt.Errorf("%w: ref %d", ErrDictRedefine, ref)
		}
		// Intern the ID once per connection: every batch decoded against
		// this def reuses the cached key on downstream keyed lookups.
		def.ID = def.ID.Interned()
		d.defs[ref] = def
	}
	if err := p.Done(); err != nil {
		return 0, fmt.Errorf("wire: dictionary: %w", err)
	}
	return ndefs, nil
}

// DecodeRefBatch parses a FrameRefBatch payload against the dictionary,
// returning a Batch identical to what a v1 FrameBatch for the same samples
// would decode to (record IDs come from the dictionary definitions).
func (d *ConnDict) DecodeRefBatch(payload []byte) (*Batch, error) {
	p := binenc.NewReader(payload)
	b := &Batch{Agent: p.Str()}
	n := p.Count(2) // a ref and a sample count, one byte each
	b.Records = make([]Record, 0, n)
	for i := 0; i < n; i++ {
		ref := p.Uvarint()
		if p.Err() != nil {
			break
		}
		r, ok := d.defs[ref]
		if !ok {
			return nil, fmt.Errorf("%w: ref %d", ErrUnknownRef, ref)
		}
		r.Samples = readSamples(&p)
		b.Records = append(b.Records, r)
	}
	if err := p.Done(); err != nil {
		return nil, fmt.Errorf("wire: ref batch: %w", err)
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
	dst = binenc.AppendString(dst, b.Agent)
	dst = binenc.AppendUvarint(dst, uint64(len(b.Records)))
	for i := range b.Records {
		r := &b.Records[i]
		dst = binenc.AppendUvarint(dst, refs[r.ID.Key()])
		dst = appendSamples(dst, r.Samples)
	}
	return dst
}

// clientDict is the send side of the v2 dictionary: per-connection ref
// assignments plus reused encode scratch, reset on redial.
type clientDict struct {
	refs map[string]uint64
	next uint64
	body []byte // definition-body scratch (defs minus the count prefix)
	defs []byte // FrameDict payload scratch
	recs []byte // FrameRefBatch payload scratch
}

func newClientDict() *clientDict { return &clientDict{refs: make(map[string]uint64)} }

// sendDict encodes b as (optional) dictionary definitions plus a ref
// batch on bw, coalescing both frames into one flush. Steady state — all
// series already defined on this connection — allocates nothing.
func (d *clientDict) sendDict(bw *BatchWriter, b *Batch) error {
	ndefs := 0
	d.body = d.body[:0]
	for i := range b.Records {
		r := &b.Records[i]
		key := r.ID.Key()
		if _, ok := d.refs[key]; ok {
			continue // already defined (possibly earlier in this batch)
		}
		d.next++
		d.refs[key] = d.next
		d.body = appendDef(d.body, d.next, r)
		ndefs++
	}
	if ndefs > 0 {
		d.defs = binenc.AppendUvarint(d.defs[:0], uint64(ndefs))
		d.defs = append(d.defs, d.body...)
		if err := bw.writeFrame(Version2, FrameDict, d.defs); err != nil {
			return err
		}
	}
	d.recs = appendRefBatch(d.recs[:0], b, d.refs)
	if err := bw.writeFrame(Version2, FrameRefBatch, d.recs); err != nil {
		return err
	}
	return bw.flush()
}
