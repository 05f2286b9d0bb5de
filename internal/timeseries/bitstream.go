// Package timeseries implements the embedded time-series database the ODA
// stack archives telemetry into: compressed chunks (delta-of-delta
// timestamps; values as decimal mantissa deltas where they are exact
// decimals, Gorilla XOR floats where they are not), a concurrency-safe store
// keyed by metric ID,
// range queries, windowed aggregation, rollup tiers and retention. Series
// are append-only: the tiers keep long histories cheap, and retention drops
// whole chunks without rewriting a series.
package timeseries

import (
	"encoding/binary"
	"errors"
)

// ErrEOS is returned by the bit reader at end of stream.
var ErrEOS = errors.New("timeseries: end of stream")

// bitWriter appends bits to a byte buffer, MSB first. buf always holds every
// bit written so far — there is no pending word to flush — so a reader that
// copies buf under the series lock (cursor tails, dumps) sees a complete
// stream.
type bitWriter struct {
	buf   []byte
	nbits uint8 // bits still free in the last byte of buf (0-7)
}

// writeBits writes the lowest n bits of v (n <= 64), most significant first;
// bits of v above n are ignored. It tops up the open byte, then stores the
// rest as one left-justified big-endian word and keeps the bytes that hold
// bits — at most two steps per call, however wide. This sits on the ingest
// and recovery hot path of every sample; TestChunkBytesGolden and
// FuzzBitWriterParity pin its output to the byte-at-a-time writer it
// replaced.
func (w *bitWriter) writeBits(v uint64, n uint8) {
	if n == 0 {
		return
	}
	v &= 1<<n - 1 // n == 64 shifts to 0, so the mask is all ones
	if w.nbits > 0 {
		last := &w.buf[len(w.buf)-1]
		if n <= w.nbits {
			w.nbits -= n
			*last |= byte(v << w.nbits)
			return
		}
		n -= w.nbits
		*last |= byte(v >> n)
		w.nbits = 0
	}
	l := len(w.buf)
	if cap(w.buf)-l < 8 {
		w.buf = append(w.buf, make([]byte, 8)...)[:l]
	}
	// Byte-aligned: the word's low 64-n bits are zero, so the bytes past
	// the ones kept are zero too and stay outside len(buf).
	binary.BigEndian.PutUint64(w.buf[l:l+8], v<<(64-n))
	used := (n + 7) / 8
	w.buf = w.buf[:l+int(used)]
	w.nbits = used*8 - n
}

// bytes returns the written stream.
func (w *bitWriter) bytes() []byte { return w.buf }

// bitReader consumes bits from a byte slice, MSB first, through a 64-bit
// refill register: reg holds the next n unread bits left-justified, so a
// caller peeks at the top of reg and consumes what it decoded with one shift.
// refill tops reg up a whole word at a time while eight bytes remain, and a
// byte at a time near the end of buf. Past the end, reg reads as zeros: a
// decoder may branch on a peeked bit it does not own, as long as it checks n
// before it consumes — a decision that rests on padding consumes it and
// fails with ErrEOS, exactly where a bit-at-a-time read would have.
// FuzzBitReaderParity pins it to the byte-stepping reader it replaced.
type bitReader struct {
	buf []byte
	pos int    // next byte of buf to load into reg
	reg uint64 // the next n stream bits, MSB first; the bits below them are 0 or the stream's own
	n   uint   // valid bits in reg (0-64)
}

// refill loads whole bytes into reg until it holds at least 57 bits or buf
// is exhausted. The word-wide load also ORs in the top bits of the byte that
// does not fit whole; those are that byte's own bits, and the next refill
// ORs them in again unchanged.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.buf) {
		r.reg |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.n
		k := (64 - r.n) >> 3 // whole bytes that fit below the valid bits
		r.pos += int(k)
		r.n += k << 3
		return
	}
	for r.n <= 56 && r.pos < len(r.buf) {
		r.reg |= uint64(r.buf[r.pos]) << (56 - r.n)
		r.pos++
		r.n += 8
	}
}

// consume drops the top k bits of reg; the caller has checked k <= n.
func (r *bitReader) consume(k uint) {
	r.reg <<= k
	r.n -= k
}

// readBits extracts the next n bits (n <= 64) MSB-first, or ErrEOS when
// fewer remain. A read wider than one refill guarantees is two reads.
func (r *bitReader) readBits(n uint8) (uint64, error) {
	if n > 56 {
		hi, err := r.readBits(n - 32)
		if err != nil {
			return 0, err
		}
		lo, err := r.readBits(32)
		if err != nil {
			return 0, err
		}
		return hi<<32 | lo, nil
	}
	k := uint(n)
	if k > r.n {
		r.refill()
		if k > r.n {
			return 0, ErrEOS
		}
	}
	v := r.reg >> (64 - k) // k == 0 shifts out everything
	r.consume(k)
	return v, nil
}

// unread returns how many bits of buf the reader has not consumed.
func (r *bitReader) unread() int { return 8*(len(r.buf)-r.pos) + int(r.n) }
