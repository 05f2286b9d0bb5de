package persist

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// BenchmarkWALReplayRefs: crash-recovery speed for a 400-sample, 2-series
// stream as the WAL holds it — two defines, then one ref append record per
// scrape round.
func BenchmarkWALReplayRefs(b *testing.B) {
	ids := []metric.ID{
		{Name: "node_power_watts", Labels: metric.NewLabels("node", "n042", "rack", "r02")},
		{Name: "node_cpu_temp_celsius", Labels: metric.NewLabels("node", "n042", "rack", "r02")},
	}
	var payloads [][]byte
	for i, id := range ids {
		payloads = append(payloads, encodeDefine(nil, uint64(i+1), id, metric.Gauge, metric.UnitWatt))
	}
	for r := 0; r < 200; r++ {
		now := int64(1000 + r*1000)
		payloads = append(payloads, encodeAppendRef(nil, []refSample{
			{ref: 1, t: now, v: float64(r)},
			{ref: 2, t: now, v: float64(100 - r)},
		}))
	}
	seg := frameSegment(payloads...)
	b.SetBytes(int64(len(seg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := timeseries.NewStore(64)
		rt := NewRefTable()
		res := mustReplay(b, seg, func(rec walRecord) { rec.apply(store, rt) })
		if res.torn || res.records == 0 {
			b.Fatalf("replay broke: torn=%v records=%d", res.torn, res.records)
		}
	}
}

// BenchmarkWALReplayFleet is recovery as the end-to-end benchmark's largest
// row sees it (see fleet_test.go for the shape). "replay" is the whole of
// recovery below the file reads: frame, checksum, decode, resolve, append.
// "direct" builds the same store from the same defines but hands the
// samples to AppendRefs already decoded and resolved, so the difference in
// allocs/op is what the decode-and-resolve loop allocates — `make
// bench-replay` holds it to one scratch buffer per segment.
func BenchmarkWALReplayFleet(b *testing.B) {
	log := fleetWAL()
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			store := newFleetStore()
			rt := NewRefTable()
			apply := func(rec walRecord) { rec.apply(store, rt) }
			for _, seg := range log.segments {
				if res := mustReplay(b, seg, apply); res.torn {
					b.Fatal("fleet segment replayed torn")
				}
			}
			b.StopTimer() // the check scans every shard; it is not recovery
			if got := store.NumSamples(); got != log.samples {
				b.Fatalf("replayed %d of %d samples", got, log.samples)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(log.samples), "ns/sample")
		b.ReportMetric(float64(len(log.segments)), "segments")
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			store := newFleetStore()
			rt := NewRefTable()
			for _, def := range log.defines {
				if err := ApplyRecord(store, rt, def); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer() // the generator's own state is not part of either build
			refs := make([]timeseries.SeriesRef, fleetAgents*fleetSensors)
			for j := range refs {
				refs[j], _ = store.LookupRef(fleetID(j/fleetSensors, j%fleetSensors))
			}
			vals := newFleetValues(fleetAgents * fleetSensors)
			b.StartTimer()
			entries := make([]timeseries.RefEntry, fleetSensors)
			for tick := 0; tick < fleetTicks; tick++ {
				vals.next()
				t := int64(fleetT0 + tick*fleetStepMs)
				for a := 0; a < fleetAgents; a++ {
					for s := range entries {
						j := a*fleetSensors + s
						entries[s] = timeseries.RefEntry{Ref: refs[j], T: t, V: vals.value[j]}
					}
					if n, err := store.AppendRefs(entries); n != len(entries) || err != nil {
						b.Fatalf("direct append: %d of %d: %v", n, len(entries), err)
					}
				}
			}
		}
	})
}
