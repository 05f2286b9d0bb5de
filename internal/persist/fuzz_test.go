package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// walFuzzSeeds are the FuzzWALReplay seeds, by corpus file name: the fuzz
// target adds them and TestGenCorpus writes them to testdata/fuzz.
func walFuzzSeeds() map[string][]byte {
	idA := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n042")}
	idB := metric.ID{Name: "node_cpu_temp_celsius"}
	def := encodeDefine(nil, 1, idA, metric.Gauge, metric.UnitWatt)
	app := encodeAppendRef(nil, []refSample{{ref: 1, t: 1000, v: 411.5}, {ref: 1, t: 2000, v: 417.25}})
	undef := encodeAppendRef(nil, []refSample{{ref: 99, t: 1000, v: 1}})
	rebound := encodeDefine(nil, 1, idB, metric.Counter, metric.UnitCelsius)
	// More samples than the two-sample record before it: the segment's
	// decode scratch must grow mid-stream without losing what it decodes.
	grown := make([]refSample, 40)
	for i := range grown {
		grown[i] = refSample{ref: 1, t: int64(3000 + i*1000), v: float64(i)}
	}

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
		"seed-ref-scratch-grows":  frameSegment(def, app, encodeAppendRef(nil, grown), app), // count field past the scratch's capacity
		"seed-retired-keyed":      frameSegment(def, app, retiredKeyedPayload(), app),       // intact record, retired op code
		"seed-retired-downsample": frameSegment(def, app, retiredOp2Payload(), app),         // likewise, the other retired op
		"seed-foreign-magic":      []byte("ODAWAL0\n\x00\x00\x00\x01"),
	}
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
		// Apply every decoded record the way recovery does — through a live
		// store and ref table — so decode-then-apply can never panic.
		store := timeseries.NewStore(8)
		rt := NewRefTable()
		res, err := replaySegment(data, func(rec walRecord) { applied++; rec.apply(store, rt) })
		if res.records != uint64(applied) {
			t.Fatalf("counted %d records, applied %d", res.records, applied)
		}
		if res.offset < 0 || res.offset > int64(len(data)) {
			t.Fatalf("clean-prefix offset %d outside input of %d bytes", res.offset, len(data))
		}
		hasMagic := bytes.HasPrefix(data, []byte(segMagic))
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
			retired := payload[0] == opRetiredKeyed || payload[0] == opRetiredDownsample
			if !retired || crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(rest[4:8]) {
				t.Fatalf("offset %d does not hold an intact retired-op record", res.offset)
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
			rt2 := NewRefTable()
			res2, err2 := replaySegment(data[:res.offset], func(rec walRecord) { again++; rec.apply(store2, rt2) })
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
