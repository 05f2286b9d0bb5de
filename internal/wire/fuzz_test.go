package wire

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/binenc"
	"repro/internal/metric"
)

// dictSeed is one (dictionary, ref batch) payload pair of the fuzz corpus.
type dictSeed struct {
	name        string
	defs, batch []byte
	decodes     bool // AddDefs and DecodeRefBatch both accept it
}

// dictFuzzSeeds builds the deterministic dictionary-protocol seed payloads
// shared by the fuzz target and the committed corpus (gen_corpus_test.go).
func dictFuzzSeeds() []dictSeed {
	rec1 := Record{
		ID:   metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n042")},
		Kind: metric.Gauge, Unit: metric.UnitWatt,
		Samples: []metric.Sample{{T: 1_700_000_000_000, V: 411.5}, {T: 1_700_000_060_000, V: 417.25}},
	}
	rec2 := Record{
		ID:   metric.ID{Name: "node_cpu_temp_celsius"},
		Kind: metric.Counter, Unit: metric.UnitCelsius,
		Samples: []metric.Sample{{T: -5, V: math.NaN()}},
	}
	defs := binenc.AppendUvarint(nil, 2)
	defs = appendDef(defs, 1, &rec1)
	defs = appendDef(defs, 2, &rec2)
	refs := map[string]uint64{rec1.ID.Key(): 1, rec2.ID.Key(): 2}
	// Mixed timestamps and several samples a record: both optional columns.
	batch := new(frameCols).appendRefBatch(nil, &Batch{Agent: "n042", Records: []Record{rec1, rec2}}, refs)
	// One agent's round: one sample a record, one timestamp, neither column.
	round := new(frameCols).appendRefBatch(nil, &Batch{Agent: "n042", Records: []Record{
		{ID: rec2.ID, Samples: []metric.Sample{{T: 1_700_000_000_000, V: 61}}},
		{ID: rec1.ID, Samples: []metric.Sample{{T: 1_700_000_000_000, V: 411.5}}},
	}}, refs)
	// The same round in ref order: a ref run and a decimal value column; and
	// that frame with an exponent past the column's range.
	run := new(frameCols).appendRefBatch(nil, &Batch{Agent: "n042", Records: []Record{
		{ID: rec1.ID, Samples: []metric.Sample{{T: 1_700_000_000_000, V: 411.5}}},
		{ID: rec2.ID, Samples: []metric.Sample{{T: 1_700_000_000_000, V: 61}}},
	}}, refs)
	badExp := append([]byte(nil), run...)
	badExp[len(badExp)-5] = 16 // the exponent, before two 2-byte values
	dupDefs := binenc.AppendUvarint(nil, 2)
	dupDefs = appendDef(dupDefs, 1, &rec1)
	dupDefs = appendDef(dupDefs, 1, &rec2) // same ref twice: protocol error
	undefBatch := new(frameCols).appendRefBatch(nil, &Batch{Agent: "n042", Records: []Record{rec1}},
		map[string]uint64{rec1.ID.Key(): 99})
	// Three records claiming two samples each over three values: every count
	// fits the bytes left on its own, their sum does not.
	overCount := binenc.AppendUvarint(binenc.AppendString(nil, "n042"), 3)
	overCount = binenc.AppendVarint(append(overCount, shapeCounts), 1_700_000_000_000)
	overCount = append(overCount, 2, 2, 1) // refs 1, 2, 1 as zig-zag deltas +1, +1, -1
	overCount = append(overCount, 2, 2, 2) // counts
	overCount = append(overCount, make([]byte, 3*8)...)
	badShape := append([]byte(nil), round...)
	badShape[len("n042")+2] |= shapeRefRun << 1 // a reserved shape bit
	return []dictSeed{
		{"seed-valid-dict", defs, batch, true},
		{"seed-one-round", defs, round, true},
		{"seed-decimal-run", defs, run, true},
		{"seed-decimal-bad-exponent", defs, badExp, false},
		{"seed-undefined-ref", []byte{}, undefBatch, false},
		{"seed-duplicate-define", dupDefs, batch, false},
		{"seed-truncated-dict", defs[:len(defs)/2], batch, false},
		{"seed-truncated-batch", defs, batch[:len(batch)/2], false},
		{"seed-count-sum-overruns", defs, overCount, false},
		{"seed-reserved-shape-bit", defs, badShape, false},
		{"seed-huge-count-varint", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, batch, false},
	}
}

// TestDictFuzzSeeds pins what each corpus seed is for: the valid ones decode,
// every other one is refused by AddDefs or DecodeRefBatch.
func TestDictFuzzSeeds(t *testing.T) {
	for _, sd := range dictFuzzSeeds() {
		cd := NewConnDict()
		_, err := cd.AddDefs(sd.defs)
		if err == nil {
			_, err = cd.DecodeRefBatch(sd.batch)
		}
		if (err == nil) != sd.decodes {
			t.Errorf("%s: decodes = %v (%v), want %v", sd.name, err == nil, err, sd.decodes)
		}
	}
}

// FuzzDictDecode throws arbitrary (dictionary, ref batch) payload pairs at
// the dictionary decoder. Properties: neither AddDefs nor DecodeRefBatch ever
// panics — undefined refs, duplicate defines, truncated dictionaries and
// implausible counts must all surface as errors — the server's path into a
// sink refuses the same pairs with the same errors and lands the same
// samples (checkServerParity), and any batch that does decode re-encodes
// through the client's encoder onto a fresh connection and decodes there to
// the same batch.
func FuzzDictDecode(f *testing.F) {
	// Seeds mirror the committed corpus in testdata/fuzz/FuzzDictDecode.
	for _, sd := range dictFuzzSeeds() {
		f.Add(sd.defs, sd.batch)
	}

	f.Fuzz(func(t *testing.T, defPayload, batchPayload []byte) {
		cd := NewConnDict()
		_, _ = cd.AddDefs(defPayload) // error = dropped conn; no panic is the property
		b, err := cd.DecodeRefBatch(batchPayload)
		checkServerParity(t, defPayload, batchPayload, b, err)
		if err != nil {
			return
		}
		// The client's dictionary keys a series by ID alone, so a batch that
		// names one ID under two kinds or units is outside its domain.
		series := map[string]Record{}
		for _, r := range b.Records {
			if prev, ok := series[r.ID.Key()]; ok && (prev.Kind != r.Kind || prev.Unit != r.Unit) {
				return
			}
			series[r.ID.Key()] = r
		}
		var stream bytes.Buffer
		if err := newClientDict(&stream).send(b); err != nil {
			t.Fatalf("re-encoding a decoded batch: %v", err)
		}
		var again ConnDict
		var b2 *Batch
		for stream.Len() > 0 {
			ft, payload, err := ReadFrame(&stream)
			if err == nil && ft == FrameDict {
				_, err = again.AddDefs(payload)
			} else if err == nil {
				b2, err = again.DecodeRefBatch(payload)
			}
			if err != nil {
				t.Fatalf("re-decoding a re-encoded batch: %v", err)
			}
		}
		if b2 == nil || b2.Agent != b.Agent || len(b2.Records) != len(b.Records) {
			t.Fatalf("round trip changed the batch: %+v vs %+v", b2, b)
		}
		for i := range b.Records {
			r, r2 := &b.Records[i], &b2.Records[i]
			// NewLabels sorts by key only (unstable among duplicate keys),
			// so compare labels as fully ordered (key, value) multisets.
			if r2.ID.Name != r.ID.Name || !sameLabelSet(r.ID.Labels, r2.ID.Labels) || r2.Kind != r.Kind || r2.Unit != r.Unit {
				t.Fatalf("record %d series changed: %+v vs %+v", i, r2, r)
			}
			if len(r2.Samples) != len(r.Samples) || (r.Samples == nil) != (r2.Samples == nil) {
				t.Fatalf("record %d: %d vs %d samples", i, len(r2.Samples), len(r.Samples))
			}
			for j := range r.Samples {
				if r2.Samples[j].T != r.Samples[j].T ||
					math.Float64bits(r2.Samples[j].V) != math.Float64bits(r.Samples[j].V) {
					t.Fatalf("record %d sample %d changed: %+v vs %+v", i, j, r2.Samples[j], r.Samples[j])
				}
			}
		}
	})
}

func sameLabelSet(a, b metric.Labels) bool {
	if len(a) != len(b) {
		return false
	}
	ac := append(metric.Labels(nil), a...)
	bc := append(metric.Labels(nil), b...)
	order := func(ls metric.Labels) func(i, j int) bool {
		return func(i, j int) bool {
			if ls[i].Key != ls[j].Key {
				return ls[i].Key < ls[j].Key
			}
			return ls[i].Value < ls[j].Value
		}
	}
	sort.Slice(ac, order(ac))
	sort.Slice(bc, order(bc))
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	return true
}
