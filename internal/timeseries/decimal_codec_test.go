package timeseries

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/binenc"
	"repro/internal/metric"
)

// decimalSpecials are the values a decimal column cannot take as a mantissa:
// each must escape with its bits, however the column stands.
var decimalSpecials = []float64{
	math.Copysign(0, -1),
	math.NaN(),
	math.Float64frombits(0x7FF8_0000_DEAD_BEEF), // a NaN payload
	math.Float64frombits(0xFFF0_0000_0000_0001), // a signalling, negative one
	math.Inf(1),
	math.Inf(-1),
	5e-324, // the smallest subnormal
	math.Float64frombits(0x000F_FFFF_FFFF_FFFF), // the largest
	1 << 60, // |m| >= 2^53 at every exponent
	-(1<<53 + 2),
	math.MaxFloat64,
	0.1 + 0.2, // inexact at every exponent a mantissa fits
}

// decimalWalkFromBytes parses fuzz input into a strictly increasing sample
// stream of mostly decimal values: 8 bytes of base timestamp (masked
// positive), a byte of starting exponent (mod 16), then 4 bytes per sample —
// an op byte, a 2-byte argument and a time delta byte (+1; top bit set
// scales it by 2^28, past what a first delta holds). Op mod 8: 0–4 step the
// mantissa by the signed argument at the current exponent; 5 injects
// decimalSpecials[arg]; 6 raises the exponent by 1 + arg mod 4 (at most 15),
// rescaling the mantissa; 7 jumps it by arg<<24, a wide delta. At most 64
// samples are read: the fuzz target decodes every truncation of a chunk.
func decimalWalkFromBytes(data []byte) []metric.Sample {
	if len(data) < 9 {
		return nil
	}
	t := int64(binary.BigEndian.Uint64(data[:8]) & 0x3FFF_FFFF_FFFF)
	e := int(data[8] % 16)
	m := int64(0)
	var out []metric.Sample
	for data = data[9:]; len(data) >= 4 && len(out) < 64; data = data[4:] {
		arg := int64(int16(binary.BigEndian.Uint16(data[1:3])))
		v := 0.0
		switch data[0] % 8 {
		case 5:
			v = decimalSpecials[uint64(arg)%uint64(len(decimalSpecials))]
		case 6:
			for k := 1 + arg&3; k > 0 && e < binenc.MaxDecimalExp; k-- {
				e++
				m *= 10
			}
			v = binenc.DecimalValue(m, e)
		case 7:
			m += arg << 24
			v = binenc.DecimalValue(m, e)
		default:
			m += arg
			v = binenc.DecimalValue(m, e)
		}
		dt := 1 + int64(data[3]&0x7F)
		if data[3]&0x80 != 0 {
			dt <<= 28
		}
		t += dt
		out = append(out, metric.Sample{T: t, V: v})
	}
	return out
}

// decimalWalkInput is the inverse of decimalWalkFromBytes' framing, for the
// seeds: ops are (op, arg, dt) triples.
func decimalWalkInput(t0 int64, e byte, ops ...[3]int) []byte {
	out := binary.BigEndian.AppendUint64(nil, uint64(t0))
	out = append(out, e)
	for _, op := range ops {
		out = append(out, byte(op[0]))
		out = binary.BigEndian.AppendUint16(out, uint16(int16(op[1])))
		out = append(out, byte(op[2]))
	}
	return out
}

// decimalFuzzSeeds are the committed corpus (testdata/fuzz/
// FuzzDecimalChunkRoundTrip, rewritten from here by GEN_CORPUS=1 go test -run
// TestGenDecimalCorpus).
func decimalFuzzSeeds() map[string][]byte {
	rng := rand.New(rand.NewSource(38))
	var walk, mixed, raises [][3]int
	for i := 0; i < 150; i++ {
		walk = append(walk, [3]int{0, rng.Intn(81) - 40, 9})
		op := [3]int{rng.Intn(8), rng.Intn(400) - 200, rng.Intn(20)}
		if i == 40 || i == 90 {
			op[2] |= 0x80 // a gap no first delta holds
		}
		mixed = append(mixed, op)
	}
	for i := range decimalSpecials {
		mixed = append(mixed, [3]int{5, i, 10})
	}
	for i := 0; i < 20; i++ {
		raises = append(raises, [3]int{6, 0, 10}, [3]int{0, 7, 10}, [3]int{7, 3, 10}, [3]int{0, -1, 10})
	}
	return map[string][]byte{
		"seed-walk":      decimalWalkInput(1_700_000_000_000, 1, walk...),
		"seed-mixed":     decimalWalkInput(1_700_000_000_000, 2, mixed...),
		"seed-raises":    decimalWalkInput(5000, 0, raises...),
		"seed-one-value": decimalWalkInput(1, 3, [3]int{5, 0, 1}),
	}
}

func TestGenDecimalCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") == "" {
		t.Skip("set GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecimalChunkRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range decimalFuzzSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.QuoteToASCII(string(data)) + ")\nuint16(7)\nuint8(13)\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// decimalChunks codes samples the way the store cuts a raw series (nextChunk,
// limit samples a chunk), every chunk decimal.
func decimalChunks(t *testing.T, samples []metric.Sample, limit int) []*Chunk {
	t.Helper()
	var chunks []*Chunk
	var x colState
	var delta int64
	for _, sm := range samples {
		var c *Chunk
		chunks, c = nextChunk(chunks, limit, sm.T)
		if c.count == 0 {
			c.dec, x = true, colState{}
		}
		if err := c.append(sm.T, sm.V, &delta, &x, nil); err != nil {
			t.Fatalf("Append(%d, %016x): %v", sm.T, math.Float64bits(sm.V), err)
		}
	}
	return chunks
}

// decodeBoth decodes buf through Next and through NextBlock in blocks of
// block, requiring the two to agree sample for sample and on the error.
func decodeBoth(t *testing.T, buf []byte, count int, tier, dec bool, block int) ([]metric.Sample, error) {
	t.Helper()
	var it ChunkIter
	it.reset(buf, count, tier, dec, false)
	var byNext []metric.Sample
	for it.Next() {
		byNext = append(byNext, it.At())
	}
	errNext := it.Err()
	it.reset(buf, count, tier, dec, false)
	var byBlock []metric.Sample
	ts, vs := make([]int64, block), make([]float64, block)
	for n := it.NextBlock(ts, vs); n > 0; n = it.NextBlock(ts, vs) {
		for i := 0; i < n; i++ {
			byBlock = append(byBlock, metric.Sample{T: ts[i], V: vs[i]})
		}
	}
	if it.Err() != errNext || !sameSamples(byNext, byBlock) {
		t.Fatalf("%d bytes, %d records: Next gives %d samples and %v, NextBlock %d and %v",
			len(buf), count, len(byNext), errNext, len(byBlock), it.Err())
	}
	return byNext, errNext
}

// sameSamples compares samples bit for bit, NaN payloads included.
func sameSamples(a, b []metric.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
			return false
		}
	}
	return true
}

// checkDecimalStream holds one coded chunk to the codec's promises: it
// decodes to want bit for bit through Next and NextBlock; every truncation
// of it fails with ErrEOS, on the same record through both; and a copy with
// bit flip flipped either fails RestoreStore or restores to a store that
// dumps those very bytes and reads back what they decode to — as a series'
// or tier's last chunk, which restore re-encodes, and sealed, which restore
// adopts (checkSealedFlip).
func checkDecimalStream(t *testing.T, cd ChunkDump, tier bool, want []metric.Sample, block int, flip uint16) {
	t.Helper()
	got, err := decodeBoth(t, cd.Data, cd.Count, tier, cd.Decimal, block)
	if err != nil || !sameSamples(got, want) {
		t.Fatalf("%d records decode to %d samples, %v", cd.Count, len(got), err)
	}
	for k := 0; k < len(cd.Data); k++ {
		if _, err := decodeBoth(t, cd.Data[:k:k], cd.Count, tier, cd.Decimal, block); !errors.Is(err, ErrEOS) {
			t.Fatalf("cut to %d of %d bytes: %v, want ErrEOS", k, len(cd.Data), err)
		}
	}

	bad := cd
	bad.Data = append([]byte(nil), cd.Data...)
	bit := int(flip) % (8 * len(bad.Data))
	bad.Data[bit/8] ^= 0x80 >> (bit % 8)
	checkSealedFlip(t, bad, tier, want, block, bit)
	sd := SeriesDump{ID: metric.ID{Name: "fuzz"}, Kind: metric.Gauge, Unit: metric.UnitWatt}
	if tier {
		sd.Tiers = []TierDump{{Step: 1, Chunks: []ChunkDump{bad}}}
	} else {
		sd.Chunks = []ChunkDump{bad}
	}
	re, err := RestoreStore(0, []SeriesDump{sd})
	if err != nil {
		return
	}
	dumped := re.Dump()[0].Chunks
	if tier {
		dumped = re.Dump()[0].Tiers[0].Chunks
	}
	if !reflect.DeepEqual(dumped, []ChunkDump{bad}) {
		t.Fatalf("bit %d flipped: restore accepted the chunk and dumps other bytes", bit)
	}
	flipped, err := decodeBoth(t, bad.Data, bad.Count, tier, bad.Decimal, block)
	if err != nil {
		t.Fatalf("bit %d flipped: restore accepted a chunk that does not decode: %v", bit, err)
	}
	ss := re.lookup(sd.ID.Key())
	chunks := ss.chunks
	if tier {
		chunks = ss.tiers[0].chunks
	}
	var it ChunkIter
	c := chunks[0]
	it.reset(c.w.bytes(), c.count, tier, c.dec, c.oneSample)
	var back []metric.Sample
	for it.Next() {
		back = append(back, it.At())
	}
	if !sameSamples(back, flipped) {
		t.Fatalf("bit %d flipped: the restored chunk reads back other samples than its bytes decode to", bit)
	}
}

// checkSealedFlip is checkDecimalStream's restore with the flipped chunk bad
// sealed: a valid last chunk follows it, one sample or one window stamped
// just past want, which bad held before its bit flipped. The restore is
// refused, or the restored store dumps both chunks' very bytes and reads bad
// back as what its bytes decode to.
func checkSealedFlip(t *testing.T, bad ChunkDump, tier bool, want []metric.Sample, block, bit int) {
	t.Helper()
	next := want[len(want)-1].T + 1
	c := NewChunk()
	c.dec = bad.Decimal
	var delta int64
	if tier {
		var pred [rollupStride]colState
		vals := [rollupStride]float64{2, 3.5, 1.5, 2, 0, 1.5, 1, 2}
		if err := c.appendGroup(next, &vals, &pred, &delta); err != nil {
			t.Fatal(err)
		}
	} else {
		var x colState
		if err := c.append(next, 1.5, &delta, &x, nil); err != nil {
			t.Fatal(err)
		}
	}
	chunks := []ChunkDump{bad, {Count: c.count, Decimal: c.dec, Data: c.w.bytes()}}
	sd := SeriesDump{ID: metric.ID{Name: "fuzz"}, Kind: metric.Gauge, Unit: metric.UnitWatt}
	if tier {
		sd.Tiers = []TierDump{{Step: 1, Chunks: chunks}}
	} else {
		sd.Chunks = chunks
	}
	re, err := RestoreStore(0, []SeriesDump{sd})
	if err != nil {
		return
	}
	ss := re.lookup(sd.ID.Key())
	dumped, restored := re.Dump()[0].Chunks, ss.chunks
	if tier {
		dumped, restored = re.Dump()[0].Tiers[0].Chunks, ss.tiers[0].chunks
	}
	if !reflect.DeepEqual(dumped, chunks) {
		t.Fatalf("bit %d flipped in a sealed chunk: restore accepted it and dumps other bytes", bit)
	}
	flipped, err := decodeBoth(t, bad.Data, bad.Count, tier, bad.Decimal, block)
	if err != nil {
		t.Fatalf("bit %d flipped in a sealed chunk: restore accepted a chunk that does not decode: %v", bit, err)
	}
	var it ChunkIter
	it.reset(restored[0].w.bytes(), restored[0].count, tier, restored[0].dec, restored[0].oneSample)
	var back []metric.Sample
	for it.Next() {
		back = append(back, it.At())
	}
	if !sameSamples(back, flipped) {
		t.Fatalf("bit %d flipped in a sealed chunk: it reads back other samples than its bytes decode to", bit)
	}
}

// FuzzDecimalChunkRoundTrip drives decimal walks — with −0, NaN payloads,
// ±Inf, subnormals, |m| >= 2^53, inexact values, exponent raises and wide
// jumps injected — through the decimal value code, as a raw chunk and, eight
// values a window, as a tier chunk whose columns are all decimal, and checks
// each against checkDecimalStream.
func FuzzDecimalChunkRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0))
	for _, seed := range decimalFuzzSeeds() {
		f.Add(seed, uint16(7), uint8(13))
	}
	f.Fuzz(func(t *testing.T, data []byte, flip uint16, block uint8) {
		samples := decimalWalkFromBytes(data)
		if len(samples) == 0 {
			return
		}
		bs := 1 + int(block)%blockLen
		i := 0
		for _, c := range decimalChunks(t, samples, len(samples)) {
			cd := ChunkDump{Count: c.count, Decimal: c.dec, Data: c.w.bytes()}
			checkDecimalStream(t, cd, false, samples[i:i+c.count], bs, flip)
			i += c.count
		}

		// The same values as tier windows: every column decimal.
		tc := NewChunk()
		tc.dec = true
		var pred [rollupStride]colState
		var delta int64
		var want []metric.Sample
		for w := 0; (w+1)*rollupStride <= len(samples); w++ {
			var vals [rollupStride]float64
			for col := range vals {
				vals[col] = samples[w*rollupStride+col].V
				want = append(want, metric.Sample{T: int64(w*rollupStride + col), V: vals[col]})
			}
			if err := tc.appendGroup(int64(w*rollupStride), &vals, &pred, &delta); err != nil {
				t.Fatal(err)
			}
		}
		if tc.count > 0 {
			checkDecimalStream(t, ChunkDump{Count: tc.count, Decimal: tc.dec, Data: tc.w.bytes()}, true, want, bs, flip)
		}
	})
}

// TestDecimalEscapesKeepTheMantissa: a value no exponent takes escapes with
// its bits and leaves the column's mantissa as it was, so the walk after it
// codes its deltas from where it stood; every special comes back bit for bit.
func TestDecimalEscapesKeepTheMantissa(t *testing.T) {
	c := newRawChunk(true)
	want := []metric.Sample{{T: 0, V: 20.5}}
	for i, v := range decimalSpecials {
		want = append(want, metric.Sample{T: int64(2*i + 1), V: v}, metric.Sample{T: int64(2*i + 2), V: 20.5 + float64(i+1)/10})
	}
	var x colState
	for _, sm := range want {
		ctl, nctl, _, _ := x.decimalCode(sm.V)
		if _, _, ok := binenc.DecimalFrom(sm.V, 0); !ok && (nctl != 6 || ctl != 0b111111) {
			t.Fatalf("%016x codes as %b/%d, want the escape", math.Float64bits(sm.V), ctl, nctl)
		}
		if err := c.Append(sm.T, sm.V); err != nil {
			t.Fatal(err)
		}
	}
	got, err := decodeBoth(t, c.w.bytes(), c.count, false, c.dec, 5)
	if err != nil || !sameSamples(got, want) {
		t.Fatalf("decoded %v, %v; want %v", got, err, want)
	}
}

// TestCodeCostMatchesBothCodes: what codeCost says a run of values took in
// each code is what chunks coded each way spend on them — the same
// timestamps, so the bytes differ by the values alone.
func TestCodeCostMatchesBothCodes(t *testing.T) {
	for _, g := range goldenStreams() {
		samples := g.samples
		if len(samples) > costedRecords {
			samples = samples[:costedRecords]
		}
		for _, dec := range []bool{false, true} {
			c, other := newRawChunk(dec), newRawChunk(!dec)
			var cc codeCost
			for _, sm := range samples {
				if err := c.append(sm.T, sm.V, &c.delta, &c.x, &cc); err != nil {
					t.Fatal(err)
				}
				if err := other.Append(sm.T, sm.V); err != nil {
					t.Fatal(err)
				}
			}
			bitsOf := func(c *Chunk) int { return 8*len(c.w.buf) - int(c.w.nbits) }
			dcmBits, gorBits := bitsOf(c.Chunk), bitsOf(other.Chunk)
			if !dec {
				dcmBits, gorBits = gorBits, dcmBits
			}
			if got, want := int(cc.dcm-cc.gor), dcmBits-gorBits; got != want {
				t.Errorf("%s, decimal=%v: codeCost says decimal takes %d bits more, the chunks differ by %d", g.name, dec, got, want)
			}
		}
	}
}

// TestLargeCounterTurnsDecimal: a counter of large integers — bytes or
// joules since boot — whose first value costs about as much as a decimal as
// Gorilla's 64 header bits, or more (1e13, 2^52), still steps by small
// mantissa deltas. The chunk after its first weighs the first one's samples
// in both codes and takes the decimal code, and so does every chunk after
// that.
func TestLargeCounterTurnsDecimal(t *testing.T) {
	for _, base := range []float64{1e13, 1 << 52} {
		s := NewStore(0)
		id := metric.ID{Name: "node_energy_joules_total"}
		for i := 0; i < 4*DefaultChunkSize; i++ {
			if err := s.Append(id, metric.Counter, metric.UnitJoule, 1_700_000_000_000+int64(i)*10_000, base+float64(37*i+i*i%11)); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range s.lookup(id.Key()).chunks {
			if i > 0 && !c.dec {
				t.Errorf("counter from %g: chunk %d of %d is Gorilla-coded", base, i, len(s.lookup(id.Key()).chunks))
			}
		}
	}
}
