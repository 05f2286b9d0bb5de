// Package timeseries implements the embedded time-series database the ODA
// stack archives telemetry into: Gorilla-compressed chunks (delta-of-delta
// timestamps, XOR floats), a concurrency-safe store keyed by metric ID,
// range queries, windowed aggregation, downsampling and retention.
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

// bitReader consumes bits from a byte slice, MSB first.
type bitReader struct {
	buf   []byte
	pos   int   // byte position
	nbits uint8 // bits consumed in current byte
}

func newBitReader(buf []byte) *bitReader { return &bitReader{buf: buf} }

func (r *bitReader) readBit() (bool, error) {
	if r.pos >= len(r.buf) {
		return false, ErrEOS
	}
	bit := r.buf[r.pos]&(1<<(7-r.nbits)) != 0
	r.nbits++
	if r.nbits == 8 {
		r.nbits = 0
		r.pos++
	}
	return bit, nil
}

// readBits extracts the next n bits MSB-first, consuming up to a byte per
// step rather than a bit at a time — this is the decode hot path every
// range query pays per sample.
func (r *bitReader) readBits(n uint8) (uint64, error) {
	var v uint64
	for n > 0 {
		if r.pos >= len(r.buf) {
			return 0, ErrEOS
		}
		avail := 8 - r.nbits
		take := n
		if take > avail {
			take = avail
		}
		chunk := r.buf[r.pos] >> (avail - take) & (0xFF >> (8 - take))
		v = v<<take | uint64(chunk)
		r.nbits += take
		if r.nbits == 8 {
			r.nbits = 0
			r.pos++
		}
		n -= take
	}
	return v, nil
}
