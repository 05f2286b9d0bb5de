package timeseries

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/metric"
)

// samplesFromBytes deterministically parses fuzz input into a strictly
// increasing sample stream: 8 bytes of base timestamp (masked positive so
// delta accumulation cannot overflow int64), then 11 bytes per sample —
// 3 bytes of time delta (biased by +1 to stay strictly increasing; a delta
// with its top bit set is scaled by 2^13, so gaps reach past the 2^35 a
// chunk's first-delta field holds) and 8 bytes of raw float64 bits (any
// pattern, including NaN and infinities).
func samplesFromBytes(data []byte) []metric.Sample {
	if len(data) < 16 {
		return nil
	}
	t := int64(binary.BigEndian.Uint64(data[:8]) & 0x7FFFFFFFFFFF)
	v := math.Float64frombits(binary.BigEndian.Uint64(data[8:16]))
	out := []metric.Sample{{T: t, V: v}}
	data = data[16:]
	for len(data) >= 11 {
		dt := 1 + (int64(data[0])<<16 | int64(data[1])<<8 | int64(data[2]))
		if data[0]&0x80 != 0 {
			dt <<= 13
		}
		t += dt
		v = math.Float64frombits(binary.BigEndian.Uint64(data[3:11]))
		out = append(out, metric.Sample{T: t, V: v})
		data = data[11:]
	}
	return out
}

// FuzzBitstreamRoundTrip drives arbitrary sample streams through the
// Gorilla chunk codec (delta-of-delta timestamps, XOR floats over the
// MSB-first bitstream) and requires the decode to reproduce every sample
// bit-for-bit — timestamps exactly, values by Float64bits so NaN payloads
// round-trip too.
func FuzzBitstreamRoundTrip(f *testing.F) {
	f.Add([]byte{})
	// Regular cadence, constant value: the dod==0 / xor==0 fast paths.
	regular := make([]byte, 16+5*11)
	binary.BigEndian.PutUint64(regular[8:16], math.Float64bits(42.5))
	for i := 16; i+11 <= len(regular); i += 11 {
		regular[i+2] = 60 // constant 60-unit delta
		binary.BigEndian.PutUint64(regular[i+3:i+11], math.Float64bits(42.5))
	}
	f.Add(regular)
	// Jittered cadence and drifting values: the window-reuse paths.
	jitter := make([]byte, 16+8*11)
	binary.BigEndian.PutUint64(jitter[8:16], math.Float64bits(211.0))
	for i, off := 0, 16; off+11 <= len(jitter); i, off = i+1, off+11 {
		jitter[off+2] = byte(55 + i%7)
		binary.BigEndian.PutUint64(jitter[off+3:off+11], math.Float64bits(211.0+float64(i)*0.25))
	}
	f.Add(jitter)
	// Adversarial bit patterns: NaN, ±Inf, subnormals, huge deltas.
	weird := make([]byte, 16+4*11)
	binary.BigEndian.PutUint64(weird[0:8], ^uint64(0))
	binary.BigEndian.PutUint64(weird[8:16], math.Float64bits(math.NaN()))
	vals := []uint64{math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), 1, ^uint64(0)}
	for i, off := 0, 16; off+11 <= len(weird); i, off = i+1, off+11 {
		weird[off], weird[off+1], weird[off+2] = 0xFF, 0xFF, 0xFF
		binary.BigEndian.PutUint64(weird[off+3:off+11], vals[i])
	}
	f.Add(weird)
	// A second sample 2^36 past the first — wider than the 35-bit first-delta
	// field, which used to truncate it silently — then a regular third.
	gap := make([]byte, 16+2*11)
	binary.BigEndian.PutUint64(gap[8:16], math.Float64bits(1))
	gap[16] = 0x80 // delta (0x800000+1)<<13
	binary.BigEndian.PutUint64(gap[19:27], math.Float64bits(2))
	gap[29] = 10
	binary.BigEndian.PutUint64(gap[30:38], math.Float64bits(3))
	f.Add(gap)

	f.Fuzz(func(t *testing.T, data []byte) {
		samples := samplesFromBytes(data)
		// The parser guarantees strictly increasing timestamps, so every
		// sample must land: in the open chunk, or — when that holds one
		// sample and the gap does not fit its first-delta field — in a
		// fresh one, which is the store's rule (nextChunk).
		var chunks []*Chunk
		for _, sm := range samples {
			var c *Chunk
			chunks, c = nextChunk(chunks, len(samples), sm.T)
			if err := c.Append(sm.T, sm.V); err != nil {
				t.Fatalf("Append(%d, %x): %v", sm.T, math.Float64bits(sm.V), err)
			}
		}
		i := 0
		for _, c := range chunks {
			it := c.Iter()
			for it.Next() {
				got := it.At()
				if i >= len(samples) {
					t.Fatalf("decoded more than %d samples", len(samples))
				}
				want := samples[i]
				if got.T != want.T || math.Float64bits(got.V) != math.Float64bits(want.V) {
					t.Fatalf("sample %d: got (%d, %016x), want (%d, %016x)",
						i, got.T, math.Float64bits(got.V), want.T, math.Float64bits(want.V))
				}
				i++
			}
			if err := it.Err(); err != nil {
				t.Fatalf("iterator error after %d samples: %v", i, err)
			}
		}
		if i != len(samples) {
			t.Fatalf("decoded %d of %d samples", i, len(samples))
		}
	})
}
