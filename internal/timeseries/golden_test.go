package timeseries

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/metric"
)

// goldenStream is one input to TestChunkBytesGolden.
type goldenStream struct {
	name    string
	samples []metric.Sample
	sha256  string // of the chunk's bytes, recorded at the commit before PR 14
}

// seededStream is a 10 s cadence stream of n samples whose values come from
// next, in the style of the end-to-end benchmark's generator.
func seededStream(seed int64, n int, next func(rng *rand.Rand, v float64) float64) []metric.Sample {
	rng := rand.New(rand.NewSource(seed))
	v := math.Round(3000*(0.5+rng.Float64())) / 10
	out := make([]metric.Sample, n)
	for i := range out {
		v = next(rng, v)
		out[i] = metric.Sample{T: 1_700_000_000_000 + int64(i)*10_000, V: v}
	}
	return out
}

func goldenStreams() []goldenStream {
	quant := func(v float64) float64 { return math.Round(v*10) / 10 }
	bitsOf := math.Float64frombits
	return []goldenStream{
		{
			name:    "walk",
			samples: seededStream(1, 300, func(rng *rand.Rand, v float64) float64 { return quant(v + (rng.Float64()-0.5)*8) }),
			sha256:  "a51ba79d688fa90b79e15e193e4fac917e0dd423fcad392ca3533a6702c7ee5f",
		},
		{
			name:    "counter",
			samples: seededStream(2, 300, func(rng *rand.Rand, v float64) float64 { return quant(v + rng.Float64()*4) }),
			sha256:  "727291bf8d9daa8c4ba79b275c991bda97c8a21781c921c5fa27dd55e4bff746",
		},
		{
			name:    "constant",
			samples: seededStream(3, 300, func(_ *rand.Rand, v float64) float64 { return v }),
			sha256:  "73f48da2384ccd9d71d173377c9c6cc18c273774a46365a209b8c3542f56213d",
		},
		{
			// Every delta-of-delta bucket in both signs and at its edges, a
			// narrow first delta, and every value path: unchanged, a new
			// window, the window reused, all 64 bits significant (encoded
			// as 0), more than 31 leading zeros (capped to the 5-bit
			// field), NaN, both infinities and negative zero.
			name: "every-path",
			samples: []metric.Sample{
				{T: 1000, V: 1.5},
				{T: 1100, V: 1.5},                            // first delta 100: '0' + 14 bits; value unchanged
				{T: 1200, V: 1.75},                           // dod 0; new window
				{T: 1364, V: 1.625},                          // dod +64: top of the 7-bit bucket; window reused
				{T: 1465, V: bitsOf(0x8000000000000001)},     // dod -63: bottom of it; xor spans all 64 bits
				{T: 1822, V: bitsOf(0x8000000000000001 ^ 1)}, // dod +256: top of the 9-bit bucket; xor == 1, 63 leading zeros
				{T: 1924, V: math.NaN()},                     // dod -255
				{T: 4074, V: math.Inf(1)},                    // dod +2048: top of the 12-bit bucket
				{T: 4177, V: math.Inf(-1)},                   // dod -2047
				{T: 9000, V: math.Copysign(0, -1)},           // dod +4720: raw 64 bits
				{T: 9001, V: 0},                              // dod -4822: raw 64 bits, negative
				{T: 9002, V: 0},                              // dod 0, value unchanged
				{T: 9003, V: 5e-324},                         // smallest subnormal: xor == 1
				{T: 9004, V: math.MaxFloat64},
			},
			sha256: "ee6387210722a599a362a35abd42c825b2c4a74cb605dfef1c3f760de2d6c9da",
		},
		{
			// A first delta of 2^14 or more takes the '1' + 35-bit form.
			name: "wide-first-delta",
			samples: []metric.Sample{
				{T: -5000, V: 20.5},
				{T: -5000 + 1<<14, V: 20.25},
				{T: -5000 + 1<<15, V: 20.25},
				{T: -5000 + 1<<15 + 1<<34, V: -20.25},
			},
			sha256: "bcb5ab81431fc5f6f84ac045374848706c56081668dc80d9f32557cd078c1c89",
		},
	}
}

func sha256Hex(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestChunkBytesGolden freezes the Gorilla codec's output: the bytes a chunk
// holds are what snapshots store, what a replication bootstrap ships and what
// RestoreStore re-encodes and compares, so the writer may get faster but the
// stream may not move by a bit. Every hash here was produced by the
// byte-at-a-time writer at the commit before PR 14.
func TestChunkBytesGolden(t *testing.T) {
	for _, g := range goldenStreams() {
		c := NewChunk()
		for _, sm := range g.samples {
			if err := c.Append(sm.T, sm.V); err != nil {
				t.Fatalf("%s: Append(%d): %v", g.name, sm.T, err)
			}
		}
		if got := sha256Hex(c.w.bytes()); got != g.sha256 {
			t.Errorf("%s: chunk bytes sha256 = %s, want %s (%d samples, %d bytes)", g.name, got, g.sha256, c.Count(), c.Bytes())
		}
		// And the stream still decodes to what went in.
		it := c.Iter()
		for i := 0; it.Next(); i++ {
			got, want := it.At(), g.samples[i]
			if got.T != want.T || math.Float64bits(got.V) != math.Float64bits(want.V) {
				t.Fatalf("%s: sample %d decodes as (%d, %x), want (%d, %x)", g.name, i, got.T, math.Float64bits(got.V), want.T, math.Float64bits(want.V))
			}
		}
		if err := it.Err(); err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
	}
}

// tierChunksSHA256 is the hash of every 1m and 1h tier chunk, in order, of a
// series fed the "walk" stream for 25 hours — sealed window groups as the
// rollup path writes them, including groups that open a chunk and groups
// that follow one. Re-pinned by PR 16, the format change that moved tier chunks
// to the column-predicted layout (snapshot v3).
const tierChunksSHA256 = "b5dc72bf16213da606a13e0721f384cd30172b1afef03fad042f3de3492fc32d"

func TestTierChunkBytesGolden(t *testing.T) {
	s := NewStore(0, WithRollups(TierStep1m, TierStep1h))
	id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n0")}
	quant := func(v float64) float64 { return math.Round(v*10) / 10 }
	for _, sm := range seededStream(1, 9000, func(rng *rand.Rand, v float64) float64 { return quant(v + (rng.Float64()-0.5)*8) }) {
		if err := s.Append(id, metric.Gauge, metric.UnitWatt, sm.T, sm.V); err != nil {
			t.Fatal(err)
		}
	}
	var parts [][]byte
	windows := 0
	for _, td := range s.Dump()[0].Tiers {
		for _, cd := range td.Chunks {
			parts = append(parts, cd.Data)
			windows += cd.Count / rollupStride
		}
	}
	if windows < 1500 {
		t.Fatalf("only %d sealed windows; the stream should seal 1499 minutes and 24 hours", windows)
	}
	if got := sha256Hex(parts...); got != tierChunksSHA256 {
		t.Fatalf("tier chunk bytes sha256 = %s, want %s", got, tierChunksSHA256)
	}
}
