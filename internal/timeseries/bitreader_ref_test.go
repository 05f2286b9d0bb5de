package timeseries

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/metric"
)

func newBitReader(buf []byte) *bitReader { return &bitReader{buf: buf} }

func (r *bitReader) readBit() (bool, error) {
	v, err := r.readBits(1)
	return v != 0, err
}

// refBitReader is the bit reader as it stood before the refill register
// replaced it: a bit or a byte-fragment at a time off the byte slice. It is
// kept verbatim, with refChunkIter below, as the reference the decoder is
// pinned to — bitReader and ChunkIter may change how they read a stream but
// never what they read from it, nor where they give up on a short one.
type refBitReader struct {
	buf   []byte
	pos   int   // byte position
	nbits uint8 // bits consumed in current byte
}

func (r *refBitReader) readBit() (bool, error) {
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

func (r *refBitReader) readBits(n uint8) (uint64, error) {
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

// refChunkIter is ChunkIter's decode as it stood over refBitReader: a
// delta-of-delta selector read bit by bit, a value's control bits one
// readBit each.
type refChunkIter struct {
	r         refBitReader
	remaining int
	idx       int

	t     int64
	v     float64
	delta int64

	cols [rollupStride]refXorState
	mask int

	err error
}

// refXorState is one value column's XOR state as the reference keeps it.
type refXorState struct {
	lastV             float64
	leading, trailing uint8
}

func newRefChunkIter(buf []byte, count int, tier bool) *refChunkIter {
	it := &refChunkIter{r: refBitReader{buf: buf}, remaining: count}
	if tier {
		it.mask = rollupStride - 1
	}
	return it
}

func (it *refChunkIter) Next() bool {
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

func (it *refChunkIter) readDoD() (int64, bool) {
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

func (it *refChunkIter) readValue(x *refXorState) bool {
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

// checkReaderParity reads buf through bitReader and the reference with the
// same sequence of widths — ops cycled, each reduced to 0..65, 65 meaning
// readBit — and requires the same bits, and ErrEOS on the same read.
func checkReaderParity(t *testing.T, buf, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		ops = []byte{1, 7, 64, 13, 65, 0, 57, 3}
	}
	r := newBitReader(buf)
	ref := &refBitReader{buf: buf}
	// Enough reads to exhaust buf unless ops is mostly zero widths.
	for step := 0; step < 8*len(buf)+2*len(ops)+2; step++ {
		n := ops[step%len(ops)] % 66
		var got, want uint64
		var err, wantErr error
		if n == 65 {
			var g, w bool
			g, err = r.readBit()
			w, wantErr = ref.readBit()
			got, want = b2u(g), b2u(w)
		} else {
			got, err = r.readBits(n)
			want, wantErr = ref.readBits(n)
		}
		if got != want || err != wantErr {
			t.Fatalf("%d bytes, read %d (width %d): got %x, %v; reference %x, %v", len(buf), step, n, got, err, want, wantErr)
		}
		if err != nil {
			return
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// checkIterParity decodes buf as a count-record chunk (a tier chunk when
// tier is set) with the reference iterator, then with ChunkIter's Next and
// with its NextBlock in blocks of block samples, and requires the same
// samples, bit for bit, and the same error.
func checkIterParity(t *testing.T, buf []byte, count int, tier bool, block int) {
	t.Helper()
	var want []metric.Sample
	ref := newRefChunkIter(buf, count, tier)
	for ref.Next() {
		want = append(want, metric.Sample{T: ref.t, V: ref.v})
	}
	same := func(how string, got []metric.Sample, err error) {
		t.Helper()
		if err != ref.err || len(got) != len(want) {
			t.Fatalf("%s over %d bytes, count %d, tier %v: %d samples, %v; reference %d, %v",
				how, len(buf), count, tier, len(got), err, len(want), ref.err)
		}
		for i, sm := range got {
			if sm.T != want[i].T || math.Float64bits(sm.V) != math.Float64bits(want[i].V) {
				t.Fatalf("%s over %d bytes, count %d, tier %v: sample %d (%d, %016x); reference (%d, %016x)",
					how, len(buf), count, tier, i, sm.T, math.Float64bits(sm.V), want[i].T, math.Float64bits(want[i].V))
			}
		}
	}

	var it ChunkIter
	it.reset(buf, count, tier, false, false)
	var got []metric.Sample
	for it.Next() {
		got = append(got, it.At())
	}
	same("Next", got, it.Err())

	it.reset(buf, count, tier, false, false)
	got = got[:0]
	ts, vs := make([]int64, block), make([]float64, block)
	for n := it.NextBlock(ts, vs); n > 0; n = it.NextBlock(ts, vs) {
		for i := 0; i < n; i++ {
			got = append(got, metric.Sample{T: ts[i], V: vs[i]})
		}
	}
	same("NextBlock", got, it.Err())
}

// parityChunks are real encoded streams for FuzzBitReaderParity's seeds: a
// raw chunk that takes every delta-of-delta class and both value-window
// cases, and a rollup tier chunk.
func parityChunks(tb testing.TB) (raw, tier *Chunk) {
	rc := newRawChunk(false)
	t := int64(1_700_000_000_000)
	for i, d := range []int64{10, 10, 11, 80, 400, 3000, 1 << 20, 10, 10, 9, 10, 1, 5000} {
		t += d
		v := 20 + float64(i%4)*0.5
		if i%5 == 3 {
			v = math.Float64frombits(math.Float64bits(v) ^ 1) // a wide window
		}
		if err := rc.Append(t, v); err != nil {
			tb.Fatal(err)
		}
	}
	// The reference decodes Gorilla columns only, and a tier chunk the store
	// seals codes its integer columns as decimals: write the windows directly.
	raw, tier = rc.Chunk, NewChunk()
	var pred [rollupStride]colState
	var delta int64
	for w := int64(0); w < 6; w++ {
		v := float64(w%4) * 1.5
		vals := [rollupStride]float64{6, 6 * v, v - 1, v + 1, float64(w % 2), v, 50_000, v + 0.25}
		if err := tier.appendGroup(w*rollupStride, &vals, &pred, &delta); err != nil {
			tb.Fatal(err)
		}
	}
	return raw, tier
}

// FuzzBitReaderParity holds the refill-register reader and the ChunkIter
// decoding off it to the byte-stepping reader and iterator they replaced,
// over arbitrary bytes and over every truncation of them: the same bits and
// ErrEOS on the same read; the same samples and the same error from Next and
// from NextBlock, raw and tier, for any record count and block size.
func FuzzBitReaderParity(f *testing.F) {
	raw, tier := parityChunks(f)
	f.Add(raw.w.bytes(), []byte{}, uint16(raw.Count()), false, uint8(3))
	f.Add(tier.w.bytes(), []byte{5, 6, 65, 64}, uint16(tier.Count()), true, uint8(rollupStride))
	f.Add(tier.w.bytes(), []byte{1}, uint16(tier.Count()), false, uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xF0, 0x0F},
		[]byte{64, 64, 58}, uint16(9), false, uint8(1))
	f.Fuzz(func(t *testing.T, data, ops []byte, count uint16, tier bool, block uint8) {
		for k := 0; k <= len(data); k++ {
			buf := data[:k:k]
			checkReaderParity(t, buf, ops)
			checkIterParity(t, buf, int(count), tier, 1+int(block)%blockLen)
		}
	})
}
