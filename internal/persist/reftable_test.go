package persist

import (
	"reflect"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// mapRefTable is RefTable as it stood before its dense slice: one map probe
// and one refDef copy per sample. It is the reference the dense table's
// edges are checked against — same records in, same store out.
type mapRefTable struct {
	epoch uint64
	defs  map[uint64]refDef
}

func (mt *mapRefTable) apply(t *testing.T, store *timeseries.Store, payload []byte) {
	t.Helper()
	rec, err := decodeRecord(payload, new([]refSample))
	if err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	switch rec.op {
	case opDefine:
		sref, err := store.Resolve(rec.id, rec.kind, rec.unit)
		if err != nil {
			return
		}
		if len(mt.defs) == 0 {
			mt.epoch = store.RefEpoch()
		}
		mt.defs[rec.ref] = refDef{id: rec.id, kind: rec.kind, unit: rec.unit, sref: sref}
	case opAppendRef:
		if cur := store.RefEpoch(); cur != mt.epoch {
			for ref, d := range mt.defs {
				if sref, err := store.Resolve(d.id, d.kind, d.unit); err == nil {
					d.sref = sref
					mt.defs[ref] = d
				}
			}
			mt.epoch = cur
		}
		var buf []timeseries.RefEntry
		for _, e := range rec.refEntries {
			if d, ok := mt.defs[e.ref]; ok {
				buf = append(buf, timeseries.RefEntry{Ref: d.sref, T: e.t, V: e.v})
			}
		}
		_, _ = store.AppendRefs(buf)
	default:
		rec.apply(store, nil) // maintenance records never touch the table
	}
}

// TestRefTableEdgesMatchMapReference replays record streams that sit on the
// dense table's edges through ApplyRecord and through the map-only
// reference, and requires identical stores.
func TestRefTableEdgesMatchMapReference(t *testing.T) {
	idA := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n01")}
	idB := metric.ID{Name: "node_cpu_temp_celsius", Labels: metric.NewLabels("node", "n01")}
	idC := metric.ID{Name: "facility_pue"}
	def := func(ref uint64, id metric.ID) []byte {
		return encodeDefine(nil, ref, id, metric.Gauge, metric.UnitWatt)
	}
	app := func(samples ...refSample) []byte { return encodeAppendRef(nil, samples) }

	cases := []struct {
		name    string
		stream  [][]byte
		resetAt int // Reset the table before this record (0 = never)
		samples int // what the store must hold afterwards
	}{
		{
			// The last dense ref and the first one past it resolve alike.
			name: "at and past the dense bound",
			stream: [][]byte{
				def(denseRefLimit-1, idA), def(denseRefLimit, idB),
				app(refSample{denseRefLimit - 1, 1000, 1}, refSample{denseRefLimit, 1000, 2}, refSample{denseRefLimit + 1, 1000, 3}),
				app(refSample{denseRefLimit, 2000, 4}, refSample{denseRefLimit - 1, 2000, 5}),
			},
			samples: 4,
		},
		{
			// A writer renumbers from 1 after a checkpoint: ref 1 moves from
			// A to B, ref 2 from B to C, and samples follow the new binding.
			name: "small refs rebound after renumbering",
			stream: [][]byte{
				def(1, idA), def(2, idB),
				app(refSample{1, 1000, 1}, refSample{2, 1000, 2}),
				def(1, idB), def(2, idC),
				app(refSample{1, 2000, 3}, refSample{2, 2000, 4}),
			},
			samples: 4,
		},
		{
			// A follower re-bootstraps: bindings made before Reset are gone
			// (their samples skip), the refs are reused afterwards.
			name: "reset then reuse",
			stream: [][]byte{
				def(1, idA), def(2, idB),
				app(refSample{1, 1000, 1}),
				app(refSample{1, 2000, 2}, refSample{2, 2000, 3}), // after Reset: both undefined
				def(2, idC),
				app(refSample{2, 3000, 4}, refSample{1, 3000, 5}),
			},
			resetAt: 3,
			samples: 2,
		},
		{
			// Undefined refs — inside the dense table's range, just past its
			// length and far outside — are skipped; their neighbours land.
			name: "undefined refs skipped",
			stream: [][]byte{
				def(3, idA),
				app(refSample{1, 1000, 1}, refSample{3, 1000, 2}, refSample{4, 1000, 3}, refSample{1 << 40, 1000, 4}),
			},
			samples: 1,
		},
		{
			// Retain bumps the store epoch between a define and its appends:
			// the cached SeriesRefs are stale and must be re-resolved, for
			// dense and sparse refs alike.
			name: "epoch bump between define and appends",
			stream: [][]byte{
				def(1, idA), def(denseRefLimit+7, idB),
				app(refSample{1, 1000, 1}, refSample{denseRefLimit + 7, 1000, 2}),
				encodeRetain(nil, 500),
				app(refSample{1, 2000, 3}, refSample{denseRefLimit + 7, 2000, 4}),
				encodeDownsample(nil, idA, 1000),
				app(refSample{1, 3000, 5}),
			},
			samples: 5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := timeseries.NewStore(8), timeseries.NewStore(8)
			rt := NewRefTable()
			mt := &mapRefTable{defs: make(map[uint64]refDef)}
			for i, payload := range tc.stream {
				if tc.resetAt != 0 && i == tc.resetAt {
					rt.Reset()
					mt.defs, mt.epoch = make(map[uint64]refDef), 0
				}
				if err := ApplyRecord(got, rt, payload); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				mt.apply(t, want, payload)
			}
			if !reflect.DeepEqual(got.Dump(), want.Dump()) {
				t.Fatalf("dense table and map reference built different stores:\n got %+v\nwant %+v", got.Dump(), want.Dump())
			}
			if n := got.NumSamples(); n != tc.samples {
				t.Fatalf("store holds %d samples, want %d", n, tc.samples)
			}
		})
	}
}

// TestRecordEntriesReusesScratch: RecordEntries decodes into the table's
// scratch, so what it returns must not alias it — a caller keeps one batch
// while decoding the next.
func TestRecordEntriesReusesScratch(t *testing.T) {
	id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n01")}
	rt := NewRefTable()
	if _, err := RecordEntries(rt, encodeDefine(nil, 1, id, metric.Gauge, metric.UnitWatt)); err != nil {
		t.Fatal(err)
	}
	first, err := RecordEntries(rt, encodeAppendRef(nil, []refSample{{1, 1000, 1}, {1, 2000, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecordEntries(rt, encodeAppendRef(nil, []refSample{{1, 3000, 3}, {1, 4000, 4}})); err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || first[0].T != 1000 || first[1].V != 2 {
		t.Fatalf("first batch changed under the second decode: %+v", first)
	}
}
