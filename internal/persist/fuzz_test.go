package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"repro/internal/binenc"
	"repro/internal/metric"
	"repro/internal/timeseries"
)

// retiredKeyedPayload is a record as the retired keyed-append writer laid
// it out (op code 1: count, then per entry a full ID, kind, unit, timestamp
// and value). Nothing decodes the body any more; the op byte alone must get
// it refused.
func retiredKeyedPayload() []byte {
	b := []byte{opRetiredKeyed}
	b = binenc.AppendUvarint(b, 1)
	b = binenc.AppendID(b, metric.ID{Name: "temp"})
	b = append(b, byte(metric.Gauge))
	b = binenc.AppendString(b, string(metric.UnitCelsius))
	b = binenc.AppendVarint(b, 1000)
	return binenc.AppendFloat(b, 21.5)
}

// retiredOp2Payload is a record as the retired downsample writer laid
// it out (op code 2: the series ID, then the window step). Like the keyed
// record, the op byte alone must get it refused.
func retiredOp2Payload() []byte {
	b := []byte{opRetiredDownsample}
	b = binenc.AppendID(b, metric.ID{Name: "power", Labels: metric.NewLabels("node", "n01")})
	return binenc.AppendVarint(b, 60000)
}

// retiredRefPayload is a record as the retired row-wise ref append writer
// laid it out (op code 6: count, then per sample a WAL-ref uvarint, a
// timestamp varint — the first absolute, the rest deltas against the
// previous sample — and the 8-byte value). It is the only encoder of op 6
// left; like the other retired records, the op byte alone must get it
// refused.
func retiredRefPayload() []byte {
	samples := []refSample{{ref: 1, t: 1000, v: 411.5}, {ref: 2, t: 1000, v: 55.25}}
	b := []byte{opRetiredAppendRef}
	b = binenc.AppendUvarint(b, uint64(len(samples)))
	var prevT int64
	for _, s := range samples {
		b = binenc.AppendUvarint(b, s.ref)
		b = binenc.AppendVarint(b, s.t-prevT)
		prevT = s.t
		b = binenc.AppendFloat(b, s.v)
	}
	return b
}

// reservedShapePayload is a one-sample append record with shape bit 3 set,
// which no writer of this version sets: a later format's record, refused
// whole rather than truncated as a tear.
func reservedShapePayload() []byte {
	p := appendColsPayload([]refSample{{ref: 1, t: 3000, v: 3}})
	p[2] |= shapeDecimal << 1 // op, n = 1, then the shape byte
	return p
}

// walFuzzSeeds are the FuzzWALReplay seeds, by corpus file name: the fuzz
// target adds them and TestGenCorpus writes them to testdata/fuzz.
func walFuzzSeeds() map[string][]byte {
	idA := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n042")}
	idB := metric.ID{Name: "node_cpu_temp_celsius"}
	def := encodeDefine(nil, 1, idA, metric.Gauge, metric.UnitWatt)
	app := appendColsPayload([]refSample{{ref: 1, t: 1000, v: 411.5}, {ref: 1, t: 2000, v: 417.25}})
	undef := appendColsPayload([]refSample{{ref: 99, t: 1000, v: 1}})
	rebound := encodeDefine(nil, 1, idB, metric.Counter, metric.UnitCelsius)
	// More samples than the two-sample record before it: the segment's
	// decode scratch must grow mid-stream without losing what it decodes.
	grown := make([]refSample, 40)
	for i := range grown {
		grown[i] = refSample{ref: 1, t: int64(3000 + i*1000), v: float64(i)}
	}

	countPastValues := []byte{opAppendCols, 3, shapeRefRun, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	// A scrape as the decimal column logs it, and the same record with an
	// exponent past the column's range: not a record, so a tear.
	defB := encodeDefine(nil, 2, idB, metric.Gauge, metric.UnitCelsius)
	scrape := appendColsPayload([]refSample{{ref: 1, t: 4000, v: 412.5}, {ref: 2, t: 4000, v: 61}})
	raw := appendColsPayload([]refSample{{ref: 2, t: 5000, v: 1.0 / 3}, {ref: 1, t: 5000, v: 400}})
	badExp := append([]byte(nil), scrape...)
	badExp[3+len(binenc.AppendVarint(nil, 4000))+1] = 16 // after op, n, shape, baseT and the first ref
	badCRC := frameSegment(encodeRetain(nil, 42))
	badCRC[len(segMagic)+4] ^= 0xFF
	tornDefine := frameSegment(def)
	return map[string][]byte{
		"seed-empty-segment":    {},
		"seed-magic-only":       []byte(segMagic),
		"seed-truncated-prefix": []byte(segMagic + "\x00\x00"),
		"seed-bad-crc":          badCRC,
		"seed-valid-multi": frameSegment(
			encodeRetain(nil, 9),
			encodeRetainTier(nil, 60000, 5),
			def, app,
		),
		"seed-ref-define-append":  frameSegment(def, app),
		"seed-ref-undefined":      frameSegment(undef),                                      // no define: refs skipped
		"seed-ref-rebound":        frameSegment(def, rebound, app),                          // one WAL ref bound to a second series
		"seed-ref-torn-define":    tornDefine[:len(tornDefine)-3],                           // tear inside a define record
		"seed-ref-scratch-grows":  frameSegment(def, app, appendColsPayload(grown), app),    // count field past the scratch's capacity
		"seed-retired-keyed":      frameSegment(def, app, retiredKeyedPayload(), app),       // intact record, retired op code
		"seed-retired-downsample": frameSegment(def, app, retiredOp2Payload(), app),         // likewise, the other retired op
		"seed-retired-ref-append": frameSegment(def, app, retiredRefPayload(), app),         // and the row-wise append op 7 replaced
		"seed-reserved-shape-bit": frameSegment(def, app, reservedShapePayload(), app),      // a later writer's append record
		"seed-unknown-op":         frameSegment(def, app, []byte{opAppendCols + 1, 0}, app), // intact but not a record: a tear, not refused
		"seed-count-past-values":  frameSegment(def, app, countPastValues, app),             // likewise, an append short of its values
		"seed-decimal-scrape":     frameSegment(def, defB, scrape, raw),                     // a decimal run record, then a raw one
		"seed-decimal-bad-exp":    frameSegment(def, defB, scrape, badExp, raw),             // an exponent past 15: a tear
		"seed-foreign-magic":      []byte("ODAWAL0\n\x00\x00\x00\x01"),
		"seed-v1-magic":           append([]byte(segMagicV1), frameSegment(def, encodeRetain(nil, 500))[len(segMagic):]...), // an earlier build's segment
	}
}

// refusable says, without asking the decoder, whether a record payload is
// one replay must refuse: a retired op code, or an append record whose shape
// byte (after the op and the count) sets a bit no writer of ours sets.
func refusable(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	switch payload[0] {
	case opRetiredKeyed, opRetiredDownsample, opRetiredAppendRef:
		return true
	case opAppendCols:
		_, k := binary.Uvarint(payload[1:])
		return k > 0 && 1+k < len(payload) && payload[1+k]&^(shapeRefRun|shapeTimes|shapeDecimal) != 0
	}
	return false
}

// FuzzWALReplay feeds arbitrary bytes through segment replay and checks the
// structural invariants that recovery relies on: replay never panics, the
// reported clean-prefix offset stays inside the input, every applied record
// is counted, a replay of just the clean prefix is itself clean and
// reproduces the same records — and the only error is ErrUnsupportedFormat,
// raised with the offset parked on the refused data and nothing marked torn
// (so nothing would be truncated).
func FuzzWALReplay(f *testing.F) {
	for _, seed := range walFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		applied := 0
		// Apply every decoded record the way recovery does — through an
		// Applier into a live store — so decode-then-apply can never panic.
		store := timeseries.NewStore(8)
		app := NewApplier(store)
		res, err := replaySegment(data, func(rec walRecord) { applied++; app.apply(rec) })
		app.Close()
		if res.records != uint64(applied) {
			t.Fatalf("counted %d records, applied %d", res.records, applied)
		}
		if res.offset < 0 || res.offset > int64(len(data)) {
			t.Fatalf("clean-prefix offset %d outside input of %d bytes", res.offset, len(data))
		}
		hasMagic := bytes.HasPrefix(data, []byte(segMagic)) || bytes.HasPrefix(data, []byte(segMagicV1))
		switch {
		case err != nil:
			if !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("replay error is not ErrUnsupportedFormat: %v", err)
			}
			if res.torn || res.tornSize != 0 {
				t.Fatalf("unsupported data reported as a tear: %+v", res)
			}
			if !hasMagic {
				if res.offset != 0 || len(data) < len(segMagic) {
					t.Fatalf("foreign magic refused at offset %d of %d bytes", res.offset, len(data))
				}
				return
			}
			// The refused record sits, whole and checksummed, at the offset.
			rest := data[res.offset:]
			length := binary.BigEndian.Uint32(rest[0:4])
			payload := rest[recordHeaderLen : recordHeaderLen+length]
			if !refusable(payload) || crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(rest[4:8]) {
				t.Fatalf("offset %d does not hold an intact refused record", res.offset)
			}
		case !res.torn && len(data) > 0 && res.offset != int64(len(data)):
			t.Fatalf("clean segment but offset %d != len %d", res.offset, len(data))
		case res.torn && res.tornSize != int64(len(data))-res.offset:
			t.Fatalf("torn size %d inconsistent with offset %d / len %d", res.tornSize, res.offset, len(data))
		}
		// Replaying the clean prefix must be deterministic and clean —
		// this is exactly what recovery does after truncating a torn tail.
		if hasMagic {
			again := 0
			store2 := timeseries.NewStore(8)
			app2 := NewApplier(store2)
			res2, err2 := replaySegment(data[:res.offset], func(rec walRecord) { again++; app2.apply(rec) })
			app2.Close()
			if err2 != nil || res2.torn || again != applied || res2.offset != res.offset {
				t.Fatalf("clean prefix replay diverged: err=%v torn=%v records=%d/%d offset=%d/%d",
					err2, res2.torn, again, applied, res2.offset, res.offset)
			}
			if !reflect.DeepEqual(store2.Dump(), store.Dump()) {
				t.Fatal("clean prefix replay produced a different store")
			}
		}
	})
}

// Modes of a FuzzWALAppendRecord sample set. The high four bits of a mode
// are the decimal exponent fuzzDecimal divides by.
const (
	fuzzRefDeltas  byte = 1 << iota // refs are base plus a per-sample varint, not base+i
	fuzzTimeDeltas                  // times are baseT plus a per-sample varint, not baseT
	fuzzDecimal                     // values are a varint over 10^(mode>>4), not raw bits
)

// fuzzSamples builds the sample set a FuzzWALAppendRecord input describes:
// n samples (at most 128); refs a run from base, or base plus a varint read
// from cols per sample (fuzzRefDeltas); times all baseT, or baseT plus a
// varint per sample (fuzzTimeDeltas); values the raw bits of a uvarint per
// sample, so NaN payloads and infinities occur, or a varint divided by a
// power of ten (fuzzDecimal), so decimal columns occur. Both sums wrap.
// Reads past the end of cols yield zeros.
func fuzzSamples(n uint8, mode byte, base uint64, baseT int64, cols []byte) []refSample {
	r := binenc.NewReader(cols)
	samples := make([]refSample, min(int(n), 128))
	for i := range samples {
		s := refSample{ref: base + uint64(i), t: baseT}
		if mode&fuzzRefDeltas != 0 {
			s.ref = base + uint64(r.Varint())
		}
		if mode&fuzzTimeDeltas != 0 {
			s.t = baseT + r.Varint()
		}
		if mode&fuzzDecimal != 0 {
			s.v = float64(r.Varint()) / math.Pow10(int(mode>>4))
		} else {
			s.v = math.Float64frombits(r.Uvarint())
		}
		samples[i] = s
	}
	return samples
}

// fuzzCols lays out cols for fuzzSamples: per sample a ref delta (read only
// under fuzzRefDeltas), a time delta (only under fuzzTimeDeltas) and a value.
func fuzzCols(mode byte, rows ...[3]int64) []byte {
	var b []byte
	for _, row := range rows {
		if mode&fuzzRefDeltas != 0 {
			b = binenc.AppendVarint(b, row[0])
		}
		if mode&fuzzTimeDeltas != 0 {
			b = binenc.AppendVarint(b, row[1])
		}
		if mode&fuzzDecimal != 0 {
			b = binenc.AppendVarint(b, row[2])
		} else {
			b = binenc.AppendUvarint(b, uint64(row[2]))
		}
	}
	return b
}

// FuzzWALAppendRecord holds the opAppendCols grammar to two properties.
// Arbitrary payloads decode without panicking, and an accepted append
// record never claims more samples than it holds bytes, nor more than
// maxRecordSamples. Arbitrary sample sets round-trip exactly — refs, times
// and value bits — with the ref and time columns elided exactly when the
// samples allow it, the value column decimal exactly when every value fits
// one, and every strict prefix of the encoding fails to decode, so a torn
// record is never mistaken for a shorter one.
func FuzzWALAppendRecord(f *testing.F) {
	nan := int64(math.Float64bits(math.NaN()) | 1)
	inf := int64(math.Float64bits(math.Inf(-1)))
	one := int64(math.Float64bits(1.5))
	seeds := []struct {
		name    string
		payload []byte
		n       uint8
		mode    byte
		base    uint64
		baseT   int64
		cols    []byte
	}{
		{"empty", nil, 0, 0, 0, 0, nil},
		{"one sample", appendColsPayload([]refSample{{ref: 1, t: 1000, v: 2}}), 1, 0, 7, 1000, fuzzCols(0, [3]int64{0, 0, one})},
		{"scrape: a run at one time", nil, 4, 0, 33, 1_700_000_000_000, fuzzCols(0, [3]int64{0, 0, one}, [3]int64{0, 0, nan}, [3]int64{0, 0, inf}, [3]int64{0, 0, 0})},
		{"run across the dense bound", nil, 3, 0, denseRefLimit - 1, 5, nil},
		{"run wrapping past the largest ref", nil, 4, 0, math.MaxUint64 - 1, 5, nil},
		{"a run that breaks", nil, 4, fuzzRefDeltas, 5, 0, fuzzCols(fuzzRefDeltas, [3]int64{0, 0, 1}, [3]int64{1, 0, 2}, [3]int64{4, 0, 3}, [3]int64{5, 0, 4})},
		{"refs out of order", nil, 4, fuzzRefDeltas, 10, 0, fuzzCols(fuzzRefDeltas, [3]int64{3, 0, 1}, [3]int64{0, 0, 2}, [3]int64{-10, 0, 3}, [3]int64{denseRefLimit, 0, 4})},
		{"ref deltas wrapping", nil, 3, fuzzRefDeltas, math.MaxUint64, 0, fuzzCols(fuzzRefDeltas, [3]int64{0, 0, 1}, [3]int64{2, 0, 2}, [3]int64{math.MinInt64, 0, 3})},
		{"repeated ref across ticks", nil, 3, fuzzRefDeltas | fuzzTimeDeltas, 1, 1000, fuzzCols(fuzzRefDeltas|fuzzTimeDeltas, [3]int64{0, 0, 1}, [3]int64{0, 10_000, 2}, [3]int64{0, 20_000, 3})},
		{"times mixed and negative", nil, 4, fuzzTimeDeltas, 1, -5000, fuzzCols(fuzzTimeDeltas, [3]int64{0, 0, 1}, [3]int64{0, -7, 2}, [3]int64{0, 1 << 40, 3}, [3]int64{0, -1 << 40, 4})},
		{"time deltas wrapping", nil, 3, fuzzTimeDeltas, 1, math.MaxInt64, fuzzCols(fuzzTimeDeltas, [3]int64{0, 0, 1}, [3]int64{0, 1, 2}, [3]int64{0, math.MinInt64, 3})},
		{"scrape: decimal values", nil, 4, fuzzDecimal | 1<<4, 33, 1_700_000_000_000, fuzzCols(fuzzDecimal, [3]int64{0, 0, 4125}, [3]int64{0, 0, -7}, [3]int64{0, 0, 0}, [3]int64{0, 0, 610})},
		{"decimal at the exponent cap", nil, 2, fuzzDecimal | 15<<4, 1, 0, fuzzCols(fuzzDecimal, [3]int64{0, 0, 1<<53 - 1}, [3]int64{0, 0, 1})},
		{"|m| at 2^53", nil, 2, fuzzDecimal, 1, 0, fuzzCols(fuzzDecimal, [3]int64{0, 0, 1 << 53}, [3]int64{0, 0, -(1 << 53)})},
		{"|m| at 2^53 + 1", nil, 1, fuzzDecimal | 2<<4, 1, 0, fuzzCols(fuzzDecimal, [3]int64{0, 0, 1<<53 + 1})},
		{"a decimal column a raw value breaks", nil, 3, fuzzDecimal | 1<<4, 1, 0, fuzzCols(fuzzDecimal, [3]int64{0, 0, 5}, [3]int64{0, 0, 1 << 62}, [3]int64{0, 0, 3})},
		{"reserved shape bit", reservedShapePayload(), 0, 0, 0, 0, nil},
		{"count past the values", []byte{opAppendCols, 3, shapeRefRun, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, 0, 0, 0, 0, nil},
		{"retired row-wise append", retiredRefPayload(), 0, 0, 0, 0, nil},
	}
	for _, s := range seeds {
		f.Add(s.payload, s.n, s.mode, s.base, s.baseT, s.cols)
	}
	f.Fuzz(func(t *testing.T, payload []byte, n uint8, mode byte, base uint64, baseT int64, cols []byte) {
		var scratch []refSample
		for _, p := range [][]byte{payload, append([]byte{opAppendCols}, payload...)} {
			rec, err := decodeRecord(p, &scratch)
			if err == nil && rec.op == opAppendCols && (len(rec.refEntries) > len(p) || len(rec.refEntries) > maxRecordSamples) {
				t.Fatalf("%d-byte payload decoded to %d samples", len(p), len(rec.refEntries))
			}
		}

		samples := fuzzSamples(n, mode, base, baseT, cols)
		enc := appendColsPayload(samples)
		rec, err := decodeRecord(enc, &scratch)
		if err != nil {
			t.Fatalf("decode of %d samples: %v", len(samples), err)
		}
		if rec.op != opAppendCols || len(rec.refEntries) != len(samples) {
			t.Fatalf("decoded op %d with %d samples, want op %d with %d", rec.op, len(rec.refEntries), opAppendCols, len(samples))
		}
		run, sameT := len(samples) > 0, true
		for i, want := range samples {
			got := rec.refEntries[i]
			if got.ref != want.ref || got.t != want.t || math.Float64bits(got.v) != math.Float64bits(want.v) {
				t.Fatalf("sample %d: got %+v, want %+v", i, got, want)
			}
			run = run && want.ref == samples[0].ref+uint64(i)
			sameT = sameT && want.t == samples[0].t
		}
		shape := enc[1+len(binenc.AppendUvarint(nil, uint64(len(samples))))]
		// Whether every value fits a decimal column is binenc's to say
		// (FuzzValueColumn holds it to the definition); the record must
		// carry its answer.
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s.v
		}
		_, decimal := binenc.AppendValues(nil, vals)
		if (shape&shapeRefRun != 0) != run || (shape&shapeTimes != 0) == sameT || (shape&shapeDecimal != 0) != decimal {
			t.Fatalf("shape %#02x for run=%v sameT=%v decimal=%v", shape, run, sameT, decimal)
		}
		for cut := range enc {
			if _, err := decodeRecord(enc[:cut], &scratch); err == nil {
				t.Fatalf("strict prefix of %d/%d bytes decoded", cut, len(enc))
			}
		}
	})
}
