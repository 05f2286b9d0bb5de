package timeseries

import (
	"bytes"
	"math/rand"
	"testing"
)

// refBitWriter is the bit writer as it stood before PR 14 replaced it with
// the word-wide one: a byte at a time, one append per byte. It is kept
// verbatim as the reference the format is pinned to — the chunk codec's
// output is an on-disk and on-wire format (snapshots, replication
// bootstrap, RestoreStore's re-encode check), so bitWriter may change how it
// writes but never what.
type refBitWriter struct {
	buf   []byte
	nbits uint8 // bits still free in the last byte (0 means full/empty)
}

func (w *refBitWriter) writeBit(bit bool) {
	if w.nbits == 0 {
		w.buf = append(w.buf, 0)
		w.nbits = 8
	}
	w.nbits--
	if bit {
		w.buf[len(w.buf)-1] |= 1 << w.nbits
	}
}

func (w *refBitWriter) writeBits(v uint64, n uint8) {
	for n > 0 {
		if w.nbits == 0 {
			w.buf = append(w.buf, 0)
			w.nbits = 8
		}
		take := n
		if take > w.nbits {
			take = w.nbits
		}
		chunk := byte(v>>(n-take)) & (0xFF >> (8 - take))
		w.buf[len(w.buf)-1] |= chunk << (w.nbits - take)
		w.nbits -= take
		n -= take
	}
}

// writeBoth feeds one (v, n) step to both writers. The reference takes a
// single bit through its writeBit every other time: the codec used to write
// its control bits that way, and the new writer has only writeBits.
func writeBoth(w *bitWriter, ref *refBitWriter, v uint64, n uint8, viaBit bool) {
	w.writeBits(v, n)
	if n == 1 && viaBit {
		ref.writeBit(v&1 == 1)
		return
	}
	ref.writeBits(v, n)
}

func checkParity(t *testing.T, w *bitWriter, ref *refBitWriter, step int) {
	t.Helper()
	if !bytes.Equal(w.buf, ref.buf) || w.nbits != ref.nbits {
		t.Fatalf("step %d: writers diverged: %x (%d free) vs reference %x (%d free)",
			step, w.buf, w.nbits, ref.buf, ref.nbits)
	}
}

// TestBitWriterParity is FuzzBitWriterParity's everyday form: seeded random
// widths and values, garbage above the width included.
func TestBitWriterParity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 200; round++ {
		var w bitWriter
		var ref refBitWriter
		for step := 0; step < 64; step++ {
			writeBoth(&w, &ref, rng.Uint64(), uint8(rng.Intn(65)), step%2 == 0)
			checkParity(t, &w, &ref, step)
		}
	}
}

// FuzzBitWriterParity drives arbitrary (v, n) sequences — 9 input bytes per
// step: a width reduced to 0..64, then 8 bytes of value whose bits above the
// width are garbage both writers must ignore — through bitWriter and the
// reference, and requires identical bytes and free-bit count after every
// step.
func FuzzBitWriterParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 64, 0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 1})
	f.Add([]byte{7, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 2, 3, 4, 5, 6, 7, 8, 63, 0x80, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var w bitWriter
		var ref refBitWriter
		for step := 0; len(data) >= 9; step++ {
			n := data[0] % 65
			var v uint64
			for _, b := range data[1:9] {
				v = v<<8 | uint64(b)
			}
			writeBoth(&w, &ref, v, n, data[0] >= 130)
			checkParity(t, &w, &ref, step)
			data = data[9:]
		}
	})
}
