package timeseries

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"

	"repro/internal/binenc"
	"repro/internal/metric"
)

// Chunk is a compressed run of samples. Timestamps are delta-of-delta coded
// (Pelkonen et al., "Gorilla: A Fast, Scalable, In-Memory Time Series
// Database", VLDB 2015). Values take one of two codes, fixed when the chunk
// opens (openRaw; a tier chunk takes its raw chunk's): Gorilla's XOR against
// the column's previous value, or a decimal code — the mantissa's delta at
// the column's decimal exponent (colState.decimalCode) — for values that are
// exact decimals, which telemetry almost always is. Samples must be appended
// in strictly increasing timestamp order.
type Chunk struct {
	w     bitWriter
	count int

	firstT int64
	lastT  int64

	// dec says the values are decimal-coded, every column of a tier chunk
	// alike. Unset is Gorilla, the code of every chunk before snapshot v4.
	dec bool
	// oneSample says a tier chunk codes a window of count 1 as its count,
	// sum and first offset alone (appendGroup), as every tier chunk has since
	// snapshot v5; unset is the whole group of a v3 or v4 tier chunk. A raw
	// chunk never sets it.
	oneSample bool
}

// colState is what one value column's next value is coded against. A
// Gorilla column keeps the previous value's bits in last and the
// leading/trailing-zero window its last '11' record set. A decimal column
// keeps its last decimal's mantissa in last, at exponent exp, and its
// previous value's bits — a decimal's or an escape's — in prev. A raw chunk
// is one column. A rollup tier chunk is rollupStride of them — a
// window's sum is predicted by the previous window's sum, not by the count
// written beside it. The state, and the timestamp delta the next record's
// delta-of-delta is taken against, live with the chunk list's owner
// (storedSeries, tierState) and are zeroed when a chunk opens: a sealed
// chunk needs none of it.
type colState struct {
	last     uint64
	prev     uint64
	leading  uint8
	trailing uint8
	hasWin   bool  // whether a previous XOR window exists
	exp      uint8 // a decimal column's exponent, 0…binenc.MaxDecimalExp
}

// NewChunk returns an empty chunk, Gorilla-coded.
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
	c := openAfter(last)
	return append(chunks, c), c
}

// openAfter returns an empty chunk to follow last, its buffer sized from the
// bytes last needed (nextChunk).
func openAfter(last *Chunk) *Chunk {
	c := NewChunk()
	c.w.buf = make([]byte, 0, len(last.w.buf)+len(last.w.buf)/8+8)
	return c
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

// append adds a sample whose value is coded against column x and whose
// timestamp against delta, the last one's delta, both of which it advances,
// and — among the chunk's first costedRecords — costs it in the other code
// too on cc, unless cc is nil.
func (c *Chunk) append(t int64, v float64, delta *int64, x *colState, cc *codeCost) error {
	n := headerValueBits
	switch c.count {
	case 0:
		// The header: the first timestamp, 8 bytes; a Gorilla column's first
		// value follows as 8 more, a decimal column's is coded in the stream.
		c.w.buf = binary.BigEndian.AppendUint64(c.w.buf, uint64(t))
		if c.dec {
			n = c.put(0, 0, v, x)
		} else {
			x.last = math.Float64bits(v)
			c.w.buf = binary.BigEndian.AppendUint64(c.w.buf, x.last)
		}
		c.firstT = t
	case 1:
		if t <= c.lastT {
			return errors.New("timeseries: out-of-order append")
		}
		d := t - c.lastT
		// First delta: 14 bits would overflow for sparse series, so
		// '0' + 14 bits for deltas < 2^14, else '1' + 35 bits. uint64 of
		// the difference is the true gap even where it wraps an int64.
		switch {
		case uint64(d) >= maxFirstDelta:
			return ErrFirstDelta
		case d < 1<<14:
			n = c.put(uint64(d), 15, v, x)
		default:
			n = c.put(1<<35|uint64(d), 36, v, x)
		}
		*delta = d
	default:
		if t <= c.lastT {
			return errors.New("timeseries: out-of-order append")
		}
		d := t - c.lastT
		dod := d - *delta
		*delta = d
		switch {
		case dod == 0:
			n = c.put(0, 1, v, x)
		case dod >= -63 && dod <= 64:
			n = c.put(0b10<<7|uint64(dod+63), 9, v, x)
		case dod >= -255 && dod <= 256:
			n = c.put(0b110<<9|uint64(dod+255), 12, v, x)
		case dod >= -2047 && dod <= 2048:
			n = c.put(0b1110<<12|uint64(dod+2047), 16, v, x)
		default:
			c.w.writeBits(0b1111, 4)
			c.w.writeBits(uint64(dod), 64)
			n = c.put(0, 0, v, x)
		}
	}
	if cc != nil && c.count < costedRecords {
		cc.add(v, c.dec, n, c.count == 0)
	}
	c.lastT = t
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
		c.trim()
	}
}

// trim reallocates the chunk's buffer at its exact length; the caller holds
// the series write lock, and no append continues the chunk after it.
func (c *Chunk) trim() {
	c.w.buf = append(make([]byte, 0, len(c.w.buf)), c.w.buf...)
}

// appendGroup appends one rollup window: rollupStride records stamped t0,
// t0+1, …, record col coded against pred[col] and the first record's
// timestamp against delta. The first two records take the general path (a
// chunk header or a delta-of-delta against the previous window, then the
// delta of 1); from the third on the delta-of-delta is zero, so each costs
// its '0' bit fused into the value's code and no timestamp arithmetic — the
// bytes rollupStride append calls would produce. In a oneSample chunk a
// window of count 1 stops after its sum and its first offset: its min, max,
// first and last value are the sum and its last offset the first
// (tierState.appendWindow refuses a window where they are not), so they take
// no bits and their columns' predictors stay put.
func (c *Chunk) appendGroup(t0 int64, vals *[rollupStride]float64, pred *[rollupStride]colState, delta *int64) error {
	if err := c.append(t0, vals[colCount], delta, &pred[colCount], nil); err != nil {
		return err
	}
	if err := c.append(t0+colSum, vals[colSum], delta, &pred[colSum], nil); err != nil {
		return err
	}
	const head = 2
	if c.oneSample && vals[colCount] == 1 {
		c.put(0, 1, vals[colFirstT], &pred[colFirstT])
	} else {
		for col := head; col < rollupStride; col++ {
			c.put(0, 1, vals[col], &pred[col])
		}
	}
	c.lastT += rollupStride - head
	c.count += rollupStride - head
	return nil
}

// put appends the low npre bits of pre — the timestamp's control prefix and
// payload, at most 36 bits — followed by v's code against column x in the
// chunk's value code, which it advances, and returns the bits the value took.
// The prefix, the value's control bits and, where they fit in a word, its
// payload go down as one writeBits call.
func (c *Chunk) put(pre uint64, npre uint8, v float64, x *colState) int {
	var ctl, pay uint64
	var nctl, npay uint8
	if c.dec {
		ctl, nctl, pay, npay = x.decimalCode(v)
	} else {
		ctl, nctl, pay, npay = x.xorCode(v)
	}
	bits := int(nctl) + int(npay)
	pre, npre = pre<<nctl|ctl, npre+nctl
	if npre+npay <= 64 {
		c.w.writeBits(pre<<npay|pay, npre+npay)
		return bits
	}
	c.w.writeBits(pre, npre)
	c.w.writeBits(pay, npay)
	return bits
}

// xorCode returns v's Gorilla code against column x, which it advances: nctl
// control bits ctl, then npay payload bits pay. '0' is a value unchanged;
// '10' + the significant bits, inside the previous window; '11' + 5 bits
// leading zeros (capped at 31) + 6 bits significant count (64 as 0) + the
// bits, a new window.
func (x *colState) xorCode(v float64) (ctl uint64, nctl uint8, pay uint64, npay uint8) {
	b := math.Float64bits(v)
	xor := b ^ x.last
	x.last = b
	if xor == 0 {
		return 0, 1, 0, 0
	}
	ctl, nctl = x.xorWindow(xor)
	// xor has at least x.leading leading zeros, so the payload fits its width.
	return ctl, nctl, xor >> x.trailing, 64 - x.leading - x.trailing
}

// xorWindow returns the control bits of a non-zero xor: '10' where it fits
// the column's window, or '11' and the new window it sets.
func (x *colState) xorWindow(xor uint64) (ctl uint64, nctl uint8) {
	leading := uint8(bits.LeadingZeros64(xor))
	trailing := uint8(bits.TrailingZeros64(xor))
	if leading > 31 { // cap so the 5-bit field fits
		leading = 31
	}
	if x.hasWin && leading >= x.leading && trailing >= x.trailing {
		return 0b10, 2
	}
	x.leading, x.trailing, x.hasWin = leading, trailing, true
	sig := 64 - leading - trailing
	return 0b11<<11 | uint64(leading)<<6 | uint64(sig&0x3F), 13
}

// decimalCode returns v's decimal code against column x, which it advances:
// nctl control bits ctl, then npay payload bits pay. '0' is the previous
// value again, however it went down. Any other value binenc.DecimalAt
// accepts at the column's exponent is its mantissa's delta from the last
// decimal's, in the delta-of-delta classes or, wider, length-prefixed:
//
//	'10' 7 bits               delta in [-63, 64]
//	'110' 9 bits              delta in [-255, 256]
//	'1110' 12 bits            delta in [-2047, 2048]
//	'11110' 6-bit n, n bits   any other delta, zig-zag
//
// A value that needs a larger exponent raises the column's to the smallest
// that takes it and goes down whole. A value no exponent takes (NaN, ±Inf,
// -0, inexact, |m| >= 2^53), or that takes only one whose mantissa is
// maxRaised or more, escapes with its bits; a decimal after it carries on
// from the mantissa before it, a delta of 0 taking the wide form.
//
//	'111110' 4-bit e, 6-bit n, n bits   exponent e, the mantissa at it, zig-zag
//	'111111' 64 bits                    the value's IEEE-754 bits
func (x *colState) decimalCode(v float64) (ctl uint64, nctl uint8, pay uint64, npay uint8) {
	b := math.Float64bits(v)
	if b == x.prev {
		return 0, 1, 0, 0
	}
	x.prev = b
	if m, ok := binenc.DecimalAt(v, int(x.exp)); ok {
		d := m - int64(x.last)
		x.last = uint64(m)
		// A delta of 0 follows an escape here; '0' would repeat the escape.
		if code, n, ok := deltaClass(d); ok && d != 0 {
			return code, n, 0, 0
		}
		z := zigzag(d)
		n := uint8(bits.Len64(z))
		return 0b11110<<6 | uint64(n), 11, z, n
	}
	if m, e, ok := binenc.DecimalFrom(v, int(x.exp)+1); ok && m > -maxRaised && m < maxRaised {
		x.last, x.exp = uint64(m), uint8(e)
		z := zigzag(m)
		n := uint8(bits.Len64(z))
		return 0b111110<<10 | uint64(e)<<6 | uint64(n), 16, z, n
	}
	return 0b111111, 6, b, 64
}

// deltaClass returns the code of a mantissa delta in the delta-of-delta
// classes, control bits and payload together, and its width; ok is false for
// a delta wider than the widest class.
func deltaClass(d int64) (code uint64, n uint8, ok bool) {
	switch {
	case d == 0:
		return 0, 1, true
	case d >= -63 && d <= 64:
		return 0b10<<7 | uint64(d+63), 9, true
	case d >= -255 && d <= 256:
		return 0b110<<9 | uint64(d+255), 12, true
	case d >= -2047 && d <= 2048:
		return 0b1110<<12 | uint64(d+2047), 16, true
	}
	return 0, 0, false
}

// maxRaised bounds the mantissa an exponent raise may leave: a value that is
// a decimal only with 15 or more significant digits is a float's own noise
// — a sum's rounding, say — and raising the column for it would cost every
// value after it those digits; it escapes instead. Without the bound a tier's
// sum column raises to such noise: the 1m tier of TestTierSizeGate's counter
// takes 14.4 B/window instead of 13.4, and BenchmarkWALReplayFleet's
// replayed store 5.07 B/sample instead of 5.00.
const maxRaised = 1 << 48

// zigzag maps a signed integer to an unsigned one of about its magnitude.
func zigzag(d int64) uint64 { return uint64(d<<1 ^ d>>63) }

// unzigzag inverts zigzag.
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// headerValueBits is what a Gorilla chunk's first value costs: its 8 bytes
// in the header.
const headerValueBits = 64

// costedRecords is how many of a raw chunk's first samples codeCost weighs.
// Costing a value in the code it is not written in takes about as long as
// writing it — a value that is not a decimal tries several exponents — and
// weighing every sample instead made appending the simulated centre's series
// at a 60 s cadence (a WAL replay of analyze_grid's shape) 3 to 7 % slower
// on a 2-core Xeon, for 0.1 % fewer bytes in its store and none in the fleet
// WAL's replayed store.
const costedRecords = 32

// codeCost weighs a raw chunk's two value codes against each other over its
// first samples (costedRecords), so that the chunk after it can take the
// cheaper (openRaw). As each value goes down in the chunk's code, it is
// costed in the other one too, against alt, that code's state: the header's
// value included, each at what it would have taken in a chunk of the other
// code.
type codeCost struct {
	alt      colState
	dcm, gor int32 // bits the values took in each code
}

// add costs value v, written as a decimal when dec is set, in n bits, in the
// other code; head says it was the chunk's first record.
func (cc *codeCost) add(v float64, dec bool, n int, head bool) {
	if !dec {
		_, nctl, _, npay := cc.alt.decimalCode(v)
		cc.dcm += int32(nctl) + int32(npay)
		cc.gor += int32(n)
		return
	}
	g := headerValueBits
	if head {
		cc.alt.last = math.Float64bits(v)
	} else {
		_, nctl, _, npay := cc.alt.xorCode(v)
		g = int(nctl) + int(npay)
	}
	cc.dcm += int32(n)
	cc.gor += int32(g)
}

// openRaw returns whether a raw chunk about to open with value v is
// decimal-coded (Chunk.dec), and resets cc, the weighing of the chunk before
// it, for the new one. The chunk is decimal where the one before would have
// coded its first samples in fewer bits that way; a series' first chunk —
// fresh — where its first value alone would. Both rest only on values every
// replay and restore sees. A series whose values are not decimals keeps
// Gorilla's bytes, and one that mixes the two takes whichever code served
// its last chunk better.
func openRaw(cc *codeCost, v float64, fresh bool) bool {
	if fresh {
		*cc = codeCost{}
		cc.add(v, false, headerValueBits, true)
	}
	dec := cc.dcm < cc.gor
	*cc = codeCost{}
	return dec
}

// Iter returns an iterator over the chunk's samples.
func (c *Chunk) Iter() *ChunkIter {
	it := &ChunkIter{}
	it.reset(c.w.bytes(), c.count, false, c.dec, false)
	return it
}

// ChunkIter decodes a chunk's records in order, one per Next or a block per
// NextBlock. It decodes off the bit reader's refill register: one
// leading-ones count on the peeked word picks the delta-of-delta class, and
// the same word, shifted past it, holds the value's control bits — an XOR
// record's 5 + 6-bit window, a decimal record's class and most deltas whole —
// so a typical record decodes off one word with a few shifts. The bit reader
// is embedded by value so a reset iterator (the cursor's read path) performs
// zero allocations per chunk.
type ChunkIter struct {
	r         bitReader
	remaining int
	idx       int

	t     int64
	v     float64
	delta int64

	// cols is the coder state per value column and record idx belongs to
	// column idx&mask: one column for a raw chunk (mask 0), rollupStride for a
	// tier chunk, which always opens on a window's first record. dec and
	// oneSample are the chunk's code and layout (Chunk.dec, Chunk.oneSample).
	cols      [rollupStride]colState
	mask      int
	dec       bool
	oneSample bool

	// single says the window being decoded is a oneSample chunk's window of
	// count 1, whose records past its sum repeat oneV, the sum, and oneT, its
	// first offset, once decoded.
	single     bool
	oneV, oneT float64

	err error
}

// reset points the iterator at a chunk's bitstream holding count records —
// a raw chunk's, or a rollup tier chunk's when tier is set — decimal-coded
// when dec is set and in the one-sample window layout when oneSample is,
// clearing all decode state so the iterator can be reused.
func (it *ChunkIter) reset(buf []byte, count int, tier, dec, oneSample bool) {
	*it = ChunkIter{r: bitReader{buf: buf}, remaining: count, dec: dec, oneSample: oneSample}
	if tier {
		it.mask = rollupStride - 1
	}
}

// Next advances to the next sample, returning false at the end or on a
// decoding error (see Err).
func (it *ChunkIter) Next() bool {
	if it.remaining == 0 || it.err != nil || !it.next() {
		return false
	}
	it.remaining--
	return true
}

// NextBlock decodes up to len(ts) samples into ts and vs (vs at least as
// long as ts), in the order Next yields them, and returns how many it
// decoded. It returns 0 at the end of the chunk or on a decoding error (see
// Err); a block cut short by an error still holds the samples before it.
func (it *ChunkIter) NextBlock(ts []int64, vs []float64) int {
	n := min(len(ts), it.remaining)
	if it.err != nil {
		n = 0
	}
	vs = vs[:n]
	for i := range vs {
		if !it.next() {
			n = i
			break
		}
		ts[i], vs[i] = it.t, it.v
	}
	it.remaining -= n
	return n
}

// implied hands out record col of a oneSample tier chunk's window of count 1
// that the stream leaves out (Chunk.appendGroup), one stamp past the record
// before it: min, max, first and last value repeat the window's sum, and the
// last offset its first.
func (it *ChunkIter) implied(col int) bool {
	switch col {
	case colFirstV:
		it.oneT, it.v = it.v, it.oneV
	case colLastT:
		it.v = it.oneT
	case colLastV:
		it.v = it.oneV
	} // min and max: v still holds the sum
	it.t++
	it.idx++
	return true
}

// next decodes one record into t and v; the caller has checked that one is
// left and that err is nil. Past the header, a record's delta-of-delta and
// value control bits (at most 16 + 13) are read off one refilled word, each
// field checked against the bits the register holds: a raw 64-bit
// delta-of-delta and a wide significand take readBits, which refills.
func (it *ChunkIter) next() bool {
	col := it.idx & it.mask
	if it.oneSample { // the window's count, sum and first offset are read below
		switch {
		case col == colSum:
			it.single = it.v == 1 // v holds the count
		case !it.single || col < colSum:
		case col == colFirstT:
			it.oneV = it.v // the sum, which min and max left in v
		default:
			return it.implied(col)
		}
	}
	x := &it.cols[col]
	r := &it.r
	switch it.idx {
	case 0: // the header: the first timestamp, and a Gorilla column's first value
		if len(r.buf) < 8 {
			it.err = ErrEOS
			return false
		}
		it.t = int64(binary.BigEndian.Uint64(r.buf[:8]))
		r.pos = 8
		if it.dec {
			return it.decimal(x)
		}
		if len(r.buf) < 16 {
			it.err = ErrEOS
			return false
		}
		x.last = binary.BigEndian.Uint64(r.buf[8:16])
		r.pos = 16
		it.v = math.Float64frombits(x.last)
		it.idx++
		return true
	case 1: // the first delta: '0' + 14 bits or '1' + 35 bits
		if r.n < 36 {
			r.refill()
		}
		w := 15 + 21*uint(r.reg>>63)
		if w > r.n {
			it.err = ErrEOS
			return false
		}
		it.delta = int64(r.reg << 1 >> (65 - w))
		r.consume(w)
	default: // a delta-of-delta, its class picked by its leading ones
		if r.n < 29 {
			r.refill()
		}
		if class := bits.LeadingZeros64(^r.reg); class < 4 {
			c := dodClass[class]
			if c.width > r.n {
				it.err = ErrEOS
				return false
			}
			// Class 0 has no payload: the shift by 64 yields 0.
			it.delta += int64(r.reg<<(class+1)>>(64-c.width+uint(class)+1)) - c.bias
			r.consume(c.width)
		} else {
			if r.n < 4 {
				it.err = ErrEOS
				return false
			}
			r.consume(4)
			raw, err := r.readBits(64)
			if err != nil {
				it.err = err
				return false
			}
			it.delta += int64(raw)
		}
	}
	it.t += it.delta
	if it.dec {
		return it.decimal(x)
	}

	// The value: '0' unchanged, '10' + the significant bits inside the
	// previous window, or '11' + 5 bits leading + 6 bits significant count
	// (0 means 64) + the bits.
	if r.n < 13 {
		r.refill()
	}
	w := r.reg
	switch {
	case r.n == 0:
		it.err = ErrEOS
		return false
	case w>>63 == 0:
		r.consume(1)
		it.v = math.Float64frombits(x.last)
		it.idx++
		return true
	case w>>62 == 0b10:
		if r.n < 2 {
			it.err = ErrEOS
			return false
		}
		r.consume(2)
	default:
		if r.n < 13 {
			it.err = ErrEOS
			return false
		}
		sig := uint8(w >> 51 & 0x3F)
		if sig == 0 {
			sig = 64
		}
		x.leading = uint8(w >> 57 & 0x1F)
		x.trailing = 64 - x.leading - sig
		r.consume(13)
	}
	sig := uint(64 - x.leading - x.trailing)
	if sig > r.n {
		r.refill()
	}
	var raw uint64
	if sig <= r.n { // readBits' own fast path, inline
		raw = r.reg >> (64 - sig)
		r.consume(sig)
	} else {
		var err error
		if raw, err = r.readBits(uint8(sig)); err != nil {
			it.err = err
			return false
		}
	}
	x.last ^= raw << x.trailing
	it.v = math.Float64frombits(x.last)
	it.idx++
	return true
}

// decimal decodes a decimal-coded value (colState.decimalCode) against
// column x into v. Its class is the leading ones of the peeked word; a
// mantissa delta in the delta-of-delta classes decodes off that word as a
// timestamp's does.
func (it *ChunkIter) decimal(x *colState) bool {
	r := &it.r
	if r.n < 16 {
		r.refill()
	}
	w := r.reg
	switch class := uint(bits.LeadingZeros64(^w)); {
	case class < 4:
		c := dodClass[class]
		if c.width > r.n {
			it.err = ErrEOS
			return false
		}
		r.consume(c.width)
		if class == 0 { // the previous value again
			it.v = math.Float64frombits(x.prev)
			it.idx++
			return true
		}
		x.last += uint64(int64(w<<(class+1)>>(64-c.width+class+1)) - c.bias)
	case class == 4: // '11110' 6-bit n, a zig-zag delta of n bits
		if r.n < 11 {
			it.err = ErrEOS
			return false
		}
		r.consume(11)
		z, err := r.readBits(uint8(w >> 53 & 0x3F))
		if err != nil {
			it.err = err
			return false
		}
		x.last += uint64(unzigzag(z))
	case class == 5: // '111110' 4-bit exponent, 6-bit n, a zig-zag mantissa of n bits
		if r.n < 16 {
			it.err = ErrEOS
			return false
		}
		x.exp = uint8(w >> 54 & 0xF)
		r.consume(16)
		z, err := r.readBits(uint8(w >> 48 & 0x3F))
		if err != nil {
			it.err = err
			return false
		}
		x.last = uint64(unzigzag(z))
	default: // '111111' and the value's 64 bits
		if r.n < 6 {
			it.err = ErrEOS
			return false
		}
		r.consume(6)
		raw, err := r.readBits(64)
		if err != nil {
			it.err = err
			return false
		}
		x.prev = raw
		it.v = math.Float64frombits(raw)
		it.idx++
		return true
	}
	it.v = binenc.DecimalValue(int64(x.last), int(x.exp))
	x.prev = math.Float64bits(it.v)
	it.idx++
	return true
}

// dodClass is a delta-of-delta's control-plus-payload width and bias, by the
// leading ones of its control bits: '0', '10'+7, '110'+9, '1110'+12; '1111'
// is followed by a raw 64-bit value.
var dodClass = [4]struct {
	width uint
	bias  int64
}{{1, 0}, {9, 63}, {12, 255}, {16, 2047}}

// At returns the current sample.
func (it *ChunkIter) At() metric.Sample { return metric.Sample{T: it.t, V: it.v} }

// Err returns the first decoding error encountered, if any.
func (it *ChunkIter) Err() error { return it.err }
