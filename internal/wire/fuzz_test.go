package wire

import (
	"math"
	"sort"
	"testing"

	"repro/internal/binenc"
	"repro/internal/metric"
)

// FuzzWireDecode throws arbitrary bytes at the batch decoder. Two
// guarantees are enforced: DecodeBatch never panics (corrupt lengths,
// truncated varints and implausible counts must all surface as errors), and
// anything that does decode re-encodes into a payload that decodes to the
// same batch — the decoder's output is always within the encoder's domain.
func FuzzWireDecode(f *testing.F) {
	// Seed with a real batch, its truncations and a corruption, so the
	// fuzzer starts inside the interesting part of the input space.
	seed := EncodeBatch(&Batch{
		Agent: "n042",
		Records: []Record{
			{
				ID:   metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n042", "rack", "r02")},
				Kind: metric.Gauge,
				Unit: metric.UnitWatt,
				Samples: []metric.Sample{
					{T: 1_700_000_000_000, V: 411.5},
					{T: 1_700_000_060_000, V: 417.25},
					{T: 1_700_000_120_000, V: math.Inf(1)},
				},
			},
			{
				ID:      metric.ID{Name: "node_cpu_temp_celsius"},
				Kind:    metric.Counter,
				Unit:    metric.UnitCelsius,
				Samples: []metric.Sample{{T: -5, V: math.NaN()}},
			},
		},
	})
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:1])
	f.Add([]byte{})
	corrupt := append([]byte(nil), seed...)
	corrupt[0] = 0xFF // agent-name length varint becomes huge
	f.Add(corrupt)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return // rejected input: the absence of a panic is the property
		}
		re := EncodeBatch(b)
		b2, err := DecodeBatch(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded batch failed: %v", err)
		}
		if b2.Agent != b.Agent || len(b2.Records) != len(b.Records) {
			t.Fatalf("round trip changed shape: %q/%d vs %q/%d",
				b2.Agent, len(b2.Records), b.Agent, len(b.Records))
		}
		for i := range b.Records {
			r, r2 := b.Records[i], b2.Records[i]
			if r2.ID.Name != r.ID.Name || r2.Kind != r.Kind || r2.Unit != r.Unit {
				t.Fatalf("record %d header changed: %+v vs %+v", i, r2, r)
			}
			// NewLabels sorts by key only (unstable among duplicate keys),
			// so compare labels as fully ordered (key, value) multisets.
			if !sameLabelSet(r.ID.Labels, r2.ID.Labels) {
				t.Fatalf("record %d labels changed: %v vs %v", i, r2.ID.Labels, r.ID.Labels)
			}
			if len(r2.Samples) != len(r.Samples) {
				t.Fatalf("record %d: %d vs %d samples", i, len(r2.Samples), len(r.Samples))
			}
			for j := range r.Samples {
				if r2.Samples[j].T != r.Samples[j].T ||
					math.Float64bits(r2.Samples[j].V) != math.Float64bits(r.Samples[j].V) {
					t.Fatalf("record %d sample %d changed: %+v vs %+v",
						i, j, r2.Samples[j], r.Samples[j])
				}
			}
		}
	})
}

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
	batch := appendRefBatch(nil, &Batch{Agent: "n042", Records: []Record{rec1, rec2}}, refs)
	// One agent's round: one sample a record, one timestamp, neither column.
	round := appendRefBatch(nil, &Batch{Agent: "n042", Records: []Record{
		{ID: rec2.ID, Samples: []metric.Sample{{T: 1_700_000_000_000, V: 61}}},
		{ID: rec1.ID, Samples: []metric.Sample{{T: 1_700_000_000_000, V: 411.5}}},
	}}, refs)
	dupDefs := binenc.AppendUvarint(nil, 2)
	dupDefs = appendDef(dupDefs, 1, &rec1)
	dupDefs = appendDef(dupDefs, 1, &rec2) // same ref twice: protocol error
	undefBatch := appendRefBatch(nil, &Batch{Agent: "n042", Records: []Record{rec1}},
		map[string]uint64{rec1.ID.Key(): 99})
	// Three records claiming two samples each over three values: every count
	// fits the bytes left on its own, their sum does not.
	overCount := binenc.AppendUvarint(binenc.AppendString(nil, "n042"), 3)
	overCount = binenc.AppendVarint(append(overCount, shapeCounts), 1_700_000_000_000)
	overCount = append(overCount, 2, 2, 1) // refs 1, 2, 1 as zig-zag deltas +1, +1, -1
	overCount = append(overCount, 2, 2, 2) // counts
	overCount = append(overCount, make([]byte, 3*8)...)
	badShape := append([]byte(nil), round...)
	badShape[len("n042")+2] |= 0x04 // a reserved shape bit
	return []dictSeed{
		{"seed-valid-dict", defs, batch, true},
		{"seed-one-round", defs, round, true},
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
// implausible counts must all surface as errors — and any batch that does
// decode is inside the v1 encoder's domain (it re-encodes and re-decodes
// cleanly).
func FuzzDictDecode(f *testing.F) {
	// Seeds mirror the committed corpus in testdata/fuzz/FuzzDictDecode.
	for _, sd := range dictFuzzSeeds() {
		f.Add(sd.defs, sd.batch)
	}

	f.Fuzz(func(t *testing.T, defPayload, batchPayload []byte) {
		cd := NewConnDict()
		_, _ = cd.AddDefs(defPayload) // error = dropped conn; no panic is the property
		b, err := cd.DecodeRefBatch(batchPayload)
		if err != nil {
			return
		}
		re := EncodeBatch(b)
		if _, err := DecodeBatch(re); err != nil {
			t.Fatalf("decoded ref batch is outside the v1 encoder domain: %v", err)
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
