// Package binenc is the one payload codec under every binary format in the
// tree: wire frames, WAL records, snapshots, topology and cluster RPC. All of
// them are runs of the same five primitives — uvarint, zig-zag varint,
// length-prefixed string/bytes, big-endian float64 and a single byte — plus
// the metric ID layout (name, label count, key/value pairs) built from them.
//
// Encoding is append-style (like strconv.AppendInt). Decoding goes through
// Reader, which is bounds-checked and error-sticky: the first short or
// malformed read records an error and exhausts the buffer, every later read
// returns a zero value, and the caller checks Err (or Done, which also
// rejects trailing bytes) once — per payload, or per loop iteration where an
// iteration has side effects.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/metric"
)

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v zig-zag encoded.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends a uvarint length followed by the bytes of s.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends a uvarint length followed by p.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendFloat appends the IEEE-754 bits of v, big endian.
func AppendFloat(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendID appends a metric ID: name, label count, then key/value pairs in
// the ID's (sorted) label order.
func AppendID(b []byte, id metric.ID) []byte {
	b = AppendString(b, id.Name)
	b = AppendUvarint(b, uint64(len(id.Labels)))
	for _, l := range id.Labels {
		b = AppendString(b, l.Key)
		b = AppendString(b, l.Value)
	}
	return b
}

// errCount reports an element count larger than the bytes left could hold.
var errCount = errors.New("binenc: implausible element count")

// Reader decodes one payload. The zero Reader reads an empty payload.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a reader positioned at the start of payload.
func NewReader(payload []byte) Reader { return Reader{buf: payload} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// left returns how many bytes remain unread.
func (r *Reader) left() int { return len(r.buf) - r.pos }

// Done returns the first decode error, or an error when bytes are left over:
// the check for formats whose payload must be consumed exactly.
func (r *Reader) Done() error {
	if r.err == nil && r.pos != len(r.buf) {
		return fmt.Errorf("binenc: %d trailing bytes", len(r.buf)-r.pos)
	}
	return r.err
}

// fail records err (keeping an earlier one) and exhausts the buffer, so every
// later read fails too instead of decoding from a garbage position.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.pos = len(r.buf)
}

// Uvarint reads an unsigned LEB128 integer.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(io.ErrUnexpectedEOF)
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a zig-zag encoded integer.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(io.ErrUnexpectedEOF)
		return 0
	}
	r.pos += n
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.pos >= len(r.buf) {
		r.fail(io.ErrUnexpectedEOF)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Bool reads one byte as a boolean (non-zero = true).
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Float reads a big-endian float64.
func (r *Reader) Float() float64 {
	if r.left() < 8 {
		r.fail(io.ErrUnexpectedEOF)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

// take returns the next n bytes without copying. n comes straight off the
// wire, so it is compared as a uint64 before any conversion to int.
func (r *Reader) take(n uint64) []byte {
	if n > uint64(r.left()) {
		r.fail(io.ErrUnexpectedEOF)
		return nil
	}
	p := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return p
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.take(r.Uvarint())) }

// Bytes reads a length-prefixed byte string into a fresh slice (nil when
// empty), so the result outlives the payload buffer.
func (r *Reader) Bytes() []byte { return append([]byte(nil), r.take(r.Uvarint())...) }

// Count reads an element count and rejects — before the caller allocates for
// it — one that the bytes left could not hold at minBytes per element.
func (r *Reader) Count(minBytes int) int { return r.Fit(r.Uvarint(), minBytes) }

// Fit is Count's check for a count the caller already holds (a sum of counts
// read earlier, say).
func (r *Reader) Fit(n uint64, minBytes int) int {
	if n > uint64(r.left()/minBytes) {
		r.fail(errCount)
		return 0
	}
	return int(n)
}

// ID reads a metric ID as written by AppendID. An ID without labels decodes
// with nil Labels, so a decoded ID is reflect.DeepEqual to the encoded one.
func (r *Reader) ID() metric.ID {
	id := metric.ID{Name: r.Str()}
	// Each label costs at least its two length prefixes.
	if n := r.Count(2); n > 0 {
		kv := make([]string, 0, 2*n)
		for i := 0; i < n; i++ {
			kv = append(kv, r.Str(), r.Str())
		}
		id.Labels = metric.NewLabels(kv...)
	}
	return id
}
