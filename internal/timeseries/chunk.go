package timeseries

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"

	"repro/internal/metric"
)

// Chunk is a Gorilla-compressed run of samples: timestamps are stored as
// delta-of-delta, values as XOR against the previous value (Pelkonen et al.,
// "Gorilla: A Fast, Scalable, In-Memory Time Series Database", VLDB 2015).
// Samples must be appended in strictly increasing timestamp order.
type Chunk struct {
	w     bitWriter
	count int

	firstT int64
	lastT  int64
	delta  int64
	x      xorState // the previous sample; unused by a tier chunk (appendGroup)

	minV, maxV float64
}

// xorState is what one value column's next XOR is taken against: the column's
// previous value and the leading/trailing-zero window its last '11' record
// set. A raw chunk is one column. A rollup tier chunk is rollupStride of them
// — a window's sum is predicted by the previous window's sum, not by the count
// written beside it — and their state lives once per open tier (tierState),
// not in the Chunk: a sealed chunk needs none.
type xorState struct {
	lastV    float64
	leading  uint8
	trailing uint8
	hasWin   bool // whether a previous XOR window exists
}

// NewChunk returns an empty chunk.
func NewChunk() *Chunk { return &Chunk{} }

// ErrFirstDelta is returned by Append when a chunk's second sample lies
// 2^35 or more past its first: the first-delta field is 35 bits wide, and
// writing the low bits of a wider one would decode as a different
// timestamp. The chunk is unchanged; the store opens a fresh chunk, whose
// header carries the full timestamp, and keeps the sample (nextChunk).
var ErrFirstDelta = errors.New("timeseries: first delta does not fit the chunk's 35-bit field")

// maxFirstDelta is the smallest first delta the codec cannot represent.
const maxFirstDelta = 1 << 35

// nextChunk returns the chunk of a chunk list that takes the next sample,
// stamped t, and the list with it: a new chunk is opened when the list is
// empty, the open chunk is full (limit samples), or it holds one sample and
// t is too far past it for the first-delta field. The rule looks only at
// data every replay sees, so recovery reproduces the same chunk boundaries.
// A new chunk's buffer is sized from the bytes its predecessor needed: a
// series' chunks are much the same size, and growing from nothing
// reallocates seven times on the way to a kilobyte.
func nextChunk(chunks []*Chunk, limit int, t int64) ([]*Chunk, *Chunk) {
	n := len(chunks)
	if n == 0 {
		c := NewChunk()
		return append(chunks, c), c
	}
	last := chunks[n-1]
	// uint64 of the wrapped difference is the true gap when t > lastT.
	wide := last.count == 1 && t > last.lastT && uint64(t-last.lastT) >= maxFirstDelta
	if last.count < limit && !wide {
		return chunks, last
	}
	c := NewChunk()
	c.w.buf = make([]byte, 0, len(last.w.buf)+len(last.w.buf)/8+8)
	return append(chunks, c), c
}

// Count returns the number of samples in the chunk.
func (c *Chunk) Count() int { return c.count }

// Bytes returns the compressed size in bytes.
func (c *Chunk) Bytes() int { return len(c.w.buf) }

// FirstTime and LastTime return the chunk's covered time range. Both are
// only meaningful when Count() > 0.
func (c *Chunk) FirstTime() int64 { return c.firstT }

// LastTime returns the timestamp of the most recent sample.
func (c *Chunk) LastTime() int64 { return c.lastT }

// Min returns the smallest value appended.
func (c *Chunk) Min() float64 { return c.minV }

// Max returns the largest value appended.
func (c *Chunk) Max() float64 { return c.maxV }

// Append adds a sample; timestamps must strictly increase.
func (c *Chunk) Append(t int64, v float64) error { return c.append(t, v, &c.x) }

// append adds a sample whose value is XOR-ed against column state x.
func (c *Chunk) append(t int64, v float64, x *xorState) error {
	switch c.count {
	case 0:
		var hdr [16]byte
		binary.BigEndian.PutUint64(hdr[:8], uint64(t))
		binary.BigEndian.PutUint64(hdr[8:], math.Float64bits(v))
		c.w.buf = append(c.w.buf, hdr[:]...)
		c.firstT = t
		c.minV, c.maxV = v, v
	case 1:
		if t <= c.lastT {
			return errors.New("timeseries: out-of-order append")
		}
		delta := t - c.lastT
		// First delta: 14 bits would overflow for sparse series, so
		// '0' + 14 bits for deltas < 2^14, else '1' + 35 bits. uint64 of
		// the difference is the true gap even where it wraps an int64.
		switch {
		case uint64(delta) >= maxFirstDelta:
			return ErrFirstDelta
		case delta < 1<<14:
			c.writeValue(uint64(delta), 15, v, x)
		default:
			c.writeValue(1<<35|uint64(delta), 36, v, x)
		}
		c.delta = delta
	default:
		if t <= c.lastT {
			return errors.New("timeseries: out-of-order append")
		}
		delta := t - c.lastT
		dod := delta - c.delta
		c.delta = delta
		switch {
		case dod == 0:
			c.writeValue(0, 1, v, x)
		case dod >= -63 && dod <= 64:
			c.writeValue(0b10<<7|uint64(dod+63), 9, v, x)
		case dod >= -255 && dod <= 256:
			c.writeValue(0b110<<9|uint64(dod+255), 12, v, x)
		case dod >= -2047 && dod <= 2048:
			c.writeValue(0b1110<<12|uint64(dod+2047), 16, v, x)
		default:
			c.w.writeBits(0b1111, 4)
			c.w.writeBits(uint64(dod), 64)
			c.writeValue(0, 0, v, x)
		}
	}
	c.lastT = t
	x.lastV = v
	if v < c.minV {
		c.minV = v
	}
	if v > c.maxV {
		c.maxV = v
	}
	c.count++
	return nil
}

// trimIfFull reallocates the buffer of a chunk that has just taken its last
// sample (its limit-th) at its exact length, giving back the slack the
// presized or grown buffer still holds. The caller holds the series write
// lock and calls it in the same critical section as the append: once the
// lock drops, cursors read a full chunk's buffer without one.
func (c *Chunk) trimIfFull(limit int) {
	if c.count >= limit {
		c.w.buf = append(make([]byte, 0, len(c.w.buf)), c.w.buf...)
	}
}

// appendGroup appends one rollup window: rollupStride records stamped t0,
// t0+1, …, record col XOR-ed against pred[col] — exactly the bytes rollupStride
// append calls would produce. The first two records take the general path (a
// chunk header or a delta-of-delta against the previous window, then the delta
// of 1); from the third on the delta-of-delta is zero, so each costs its '0'
// bit fused into the value's encoding and no timestamp arithmetic. Min and Max
// mean nothing over mixed columns and are not kept.
func (c *Chunk) appendGroup(t0 int64, vals *[rollupStride]float64, pred *[rollupStride]xorState) error {
	const head = 2
	for col := 0; col < head; col++ {
		if err := c.append(t0+int64(col), vals[col], &pred[col]); err != nil {
			return err
		}
	}
	for col := head; col < rollupStride; col++ {
		c.writeValue(0, 1, vals[col], &pred[col])
		pred[col].lastV = vals[col]
	}
	c.lastT += rollupStride - head
	c.count += rollupStride - head
	return nil
}

// writeValue appends the low npre bits of pre — the timestamp's control
// prefix and payload, at most 36 bits — followed by v's XOR encoding, fusing
// the prefix, the value's control bits and, where they fit in a word, its
// significant bits into one writeBits call. x is the value's column state;
// the caller stores v into it afterwards.
func (c *Chunk) writeValue(pre uint64, npre uint8, v float64, x *xorState) {
	xor := math.Float64bits(v) ^ math.Float64bits(x.lastV)
	if xor == 0 {
		c.w.writeBits(pre<<1, npre+1) // '0': value unchanged
		return
	}
	leading := uint8(bits.LeadingZeros64(xor))
	trailing := uint8(bits.TrailingZeros64(xor))
	if leading > 31 { // cap so the 5-bit field fits
		leading = 31
	}
	if x.hasWin && leading >= x.leading && trailing >= x.trailing {
		// '1' '0': reuse the previous window.
		pre, npre = pre<<2|0b10, npre+2
	} else {
		// '1' '1', 5 bits leading, 6 bits significant count (64 -> 0).
		x.leading, x.trailing, x.hasWin = leading, trailing, true
		sig := 64 - leading - trailing
		pre, npre = pre<<13|0b11<<11|uint64(leading)<<6|uint64(sig&0x3F), npre+13
	}
	sig := 64 - x.leading - x.trailing
	payload := xor >> x.trailing // < 2^sig: xor has at least x.leading leading zeros
	if npre+sig <= 64 {
		c.w.writeBits(pre<<sig|payload, npre+sig)
		return
	}
	c.w.writeBits(pre, npre)
	c.w.writeBits(payload, sig)
}

// Iter returns an iterator over the chunk's samples.
func (c *Chunk) Iter() *ChunkIter {
	it := &ChunkIter{}
	it.reset(c.w.bytes(), c.count, false)
	return it
}

// ChunkIter decodes a chunk sample by sample. The bit reader is embedded by
// value so a reset iterator (the cursor's read path) performs zero
// allocations per chunk.
type ChunkIter struct {
	r         bitReader
	remaining int
	idx       int

	t     int64
	v     float64
	delta int64

	// cols is the XOR state per value column and record idx belongs to column
	// idx&mask: one column for a raw chunk (mask 0), rollupStride for a tier
	// chunk, which always opens on a window's first record.
	cols [rollupStride]xorState
	mask int

	err error
}

// reset points the iterator at a Gorilla bitstream holding count records — a
// raw chunk's, or a rollup tier chunk's when tier is set — clearing all decode
// state so the iterator can be reused.
func (it *ChunkIter) reset(buf []byte, count int, tier bool) {
	*it = ChunkIter{r: bitReader{buf: buf}, remaining: count}
	if tier {
		it.mask = rollupStride - 1
	}
}

// Next advances to the next sample, returning false at the end or on a
// decoding error (see Err).
func (it *ChunkIter) Next() bool {
	if it.remaining == 0 || it.err != nil {
		return false
	}
	x := &it.cols[it.idx&it.mask]
	if it.idx == 0 {
		if it.r.pos+16 > len(it.r.buf) {
			it.err = ErrEOS
			return false
		}
		it.t = int64(binary.BigEndian.Uint64(it.r.buf[:8]))
		x.lastV = math.Float64frombits(binary.BigEndian.Uint64(it.r.buf[8:16]))
		it.r.pos = 16
	} else if it.idx == 1 {
		wide, err := it.r.readBit()
		if err != nil {
			it.err = err
			return false
		}
		n := uint8(14)
		if wide {
			n = 35
		}
		d, err := it.r.readBits(n)
		if err != nil {
			it.err = err
			return false
		}
		it.delta = int64(d)
		it.t += it.delta
		if !it.readValue(x) {
			return false
		}
	} else {
		dod, ok := it.readDoD()
		if !ok {
			return false
		}
		it.delta += dod
		it.t += it.delta
		if !it.readValue(x) {
			return false
		}
	}
	it.v = x.lastV
	it.idx++
	it.remaining--
	return true
}

func (it *ChunkIter) readDoD() (int64, bool) {
	// Count leading ones of the selector (max 4).
	var selector uint8
	for selector < 4 {
		bit, err := it.r.readBit()
		if err != nil {
			it.err = err
			return 0, false
		}
		if !bit {
			break
		}
		selector++
	}
	var nbits uint8
	var bias int64
	switch selector {
	case 0:
		return 0, true
	case 1:
		nbits, bias = 7, 63
	case 2:
		nbits, bias = 9, 255
	case 3:
		nbits, bias = 12, 2047
	case 4:
		raw, err := it.r.readBits(64)
		if err != nil {
			it.err = err
			return 0, false
		}
		return int64(raw), true
	}
	raw, err := it.r.readBits(nbits)
	if err != nil {
		it.err = err
		return 0, false
	}
	return int64(raw) - bias, true
}

// readValue decodes the next value of column x into x.lastV.
func (it *ChunkIter) readValue(x *xorState) bool {
	changed, err := it.r.readBit()
	if err != nil {
		it.err = err
		return false
	}
	if !changed {
		return true
	}
	newWin, err := it.r.readBit()
	if err != nil {
		it.err = err
		return false
	}
	if newWin {
		lead, err := it.r.readBits(5)
		if err != nil {
			it.err = err
			return false
		}
		sigRaw, err := it.r.readBits(6)
		if err != nil {
			it.err = err
			return false
		}
		sig := uint8(sigRaw)
		if sig == 0 {
			sig = 64
		}
		x.leading = uint8(lead)
		x.trailing = 64 - x.leading - sig
	}
	sig := 64 - x.leading - x.trailing
	raw, err := it.r.readBits(sig)
	if err != nil {
		it.err = err
		return false
	}
	xor := raw << x.trailing
	x.lastV = math.Float64frombits(math.Float64bits(x.lastV) ^ xor)
	return true
}

// At returns the current sample.
func (it *ChunkIter) At() metric.Sample { return metric.Sample{T: it.t, V: it.v} }

// Err returns the first decoding error encountered, if any.
func (it *ChunkIter) Err() error { return it.err }
