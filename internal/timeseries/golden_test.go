package timeseries

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
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
		c := newRawChunk(false)
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

// decimalChunksSHA256 freezes the decimal value code as TestChunkBytesGolden
// freezes Gorilla's: each golden stream in one chunk whose column is decimal
// — a walk and a counter of one-decimal values, a constant, every special
// value escaping, and a wide first delta.
var decimalChunksSHA256 = map[string]string{
	"walk":             "ccf208dcdd9b83ec9cffdfe779261e501910b951d21a687f1ea8e65c8f32b376", // 384 bytes
	"counter":          "8309294402dfa49f73295be4a0f4b76c2af37540aca092ee08557c3bed7ec1de", // 385
	"constant":         "503ab8ef31df2af069af8dcb3459ae84d575cd2b33192bff9050859144d431e9", // 87
	"every-path":       "ca12d4c27fc28b205342952f83525543ef86b5249431e482d483fc908428ec7a", // 119
	"wide-first-delta": "fb9630066ec712be953b23f62193f46bfdd8ff90e3d56d31e0a87f50bc1ddae2", // 31
}

func TestDecimalChunkBytesGolden(t *testing.T) {
	for _, g := range goldenStreams() {
		c := newRawChunk(true)
		for _, sm := range g.samples {
			if err := c.Append(sm.T, sm.V); err != nil {
				t.Fatalf("%s: Append(%d): %v", g.name, sm.T, err)
			}
		}
		if got := sha256Hex(c.w.bytes()); got != decimalChunksSHA256[g.name] {
			t.Errorf("%s: decimal chunk bytes sha256 = %s, want %s (%d samples, %d bytes)", g.name, got, decimalChunksSHA256[g.name], c.Count(), c.Bytes())
		}
		got, err := decodeBoth(t, c.w.bytes(), c.count, false, c.dec, 7)
		if err != nil || !sameSamples(got, g.samples) {
			t.Fatalf("%s: decodes to %d samples, %v", g.name, len(got), err)
		}
	}
}

// tierChunksSHA256 is the hash of every 1m and 1h tier chunk, in order, of a
// series fed the "walk" stream — sealed window groups as the rollup path
// writes them, including groups that open a chunk and groups that follow one
// — by value code and cadence. "gorilla" is the tiers of a series whose raw
// chunks are Gorilla-coded, pinned when tier chunks moved to the
// column-predicted layout (snapshot v3): the bytes a v3 restore re-encodes
// through. "decimal" is the tiers the store writes for this walk, whose raw
// chunks are decimal-coded (snapshot v4). At the walk's 10 s cadence every
// window holds several samples, so neither moved with the one-sample window
// layout (snapshot v5); the "-60s" hashes are the same walk, a sample a
// minute, where every 1m window holds one, pinned with that layout.
var tierChunksSHA256 = map[string]string{
	"gorilla":     "b5dc72bf16213da606a13e0721f384cd30172b1afef03fad042f3de3492fc32d",
	"decimal":     "cc46572eb03d95e6632917ad5cbadc3f69d9c1ca2a99e57a29b5a58abe0c3f76",
	"gorilla-60s": "33f22f3e586a60eeac52dd0232f85c811e179e594d738978c1cc9a3d859bee93",
	"decimal-60s": "fb088d9fd8f21965ee6c9418494d489c9335e47d19e42cf65d241dd76dd1e65a",
}

func TestTierChunkBytesGolden(t *testing.T) {
	quant := func(v float64) float64 { return math.Round(v*10) / 10 }
	walk := seededStream(1, 9000, func(rng *rand.Rand, v float64) float64 { return quant(v + (rng.Float64()-0.5)*8) })
	for name, want := range tierChunksSHA256 {
		code, cadence, _ := strings.Cut(name, "-")
		samples := walk
		if cadence == "60s" {
			samples = make([]metric.Sample, len(walk))
			for i, sm := range walk {
				samples[i] = metric.Sample{T: walk[0].T + int64(i)*60_000, V: sm.V}
			}
		}
		s := NewStore(0, WithRollups(TierStep1m, TierStep1h))
		id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n0")}
		if code == "decimal" {
			for _, sm := range samples {
				if err := s.Append(id, metric.Gauge, metric.UnitWatt, sm.T, sm.V); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			// The tiers alone, folded as beside a Gorilla raw chunk.
			ss := s.getOrCreate(id.Key(), id, metric.Gauge, metric.UnitWatt)
			var tally ingestTally
			for _, sm := range samples {
				for _, ts := range ss.tiers {
					if err := ts.fold(s, sm.T, sm.V, false, &tally); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var parts [][]byte
		windows := 0
		for _, td := range s.Dump()[0].Tiers {
			for _, cd := range td.Chunks {
				if cd.Decimal != (code == "decimal") || !cd.OneSample {
					t.Fatalf("%s: a tier chunk of the other code, or not in the one-sample window layout", name)
				}
				parts = append(parts, cd.Data)
				windows += cd.Count / rollupStride
			}
		}
		if windows < 1500 {
			t.Fatalf("%s: only %d sealed windows; the stream should seal 1499 minutes and 24 hours", name, windows)
		}
		if got := sha256Hex(parts...); got != want {
			t.Errorf("%s: tier chunk bytes sha256 = %s, want %s", name, got, want)
		}
	}
}
