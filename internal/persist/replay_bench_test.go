package persist

import (
	"path/filepath"
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
		payloads = append(payloads, appendColsPayload([]refSample{
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
		app := NewApplier(store)
		res := mustReplay(b, seg, app.apply)
		app.Close()
		if res.torn || res.records == 0 {
			b.Fatalf("replay broke: torn=%v records=%d", res.torn, res.records)
		}
	}
}

// BenchmarkWALReplayFleet is recovery as the end-to-end benchmark's largest
// row sees it (see fleet_test.go for the shape). "replay" is the whole of
// recovery below the file reads — frame, checksum, decode, resolve, append —
// through the Applier Open replays with, so -cpu sets its shard count.
// "direct" builds the same store from the same defines but hands the
// samples to AppendRefs already decoded and resolved, so the difference in
// allocs/op is what the decode-and-resolve loop allocates — `make
// bench-replay` holds it to one scratch buffer per segment. "replay" also
// reports wal_B/sample, the fleet segments' bytes over their samples, and
// store_B/sample, the replayed store's resident raw and rollup tier chunk
// bytes over the same samples: counts, not timings, which `make
// bench-replay` gates like the allocs. "replay_60s" is "replay" over the
// same fleet a sample a minute, where every 1m rollup window holds one
// sample; `make bench-replay` gates its store_B/sample too.
func BenchmarkWALReplayFleet(b *testing.B) {
	b.Run("replay", func(b *testing.B) { benchReplayFleet(b, fleetWAL()) })
	b.Run("replay_60s", func(b *testing.B) { benchReplayFleet(b, fleetWALAt(fleetStep60s)) })
	log := fleetWAL()
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			store := newFleetStore()
			app := NewApplier(store)
			for _, def := range log.defines {
				if err := app.Apply(def); err != nil {
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

// benchReplayFleet replays a fleet WAL into a fresh store per iteration and
// reports ns/sample, the WAL's segments and wal_B/sample, and the replayed
// store's store_B/sample.
func benchReplayFleet(b *testing.B, log *fleetLog) {
	var walBytes int
	for _, seg := range log.segments {
		walBytes += len(seg)
	}
	b.ReportAllocs()
	b.ResetTimer() // the first run builds the WAL
	var storeBytes int
	for i := 0; i < b.N; i++ {
		store := newFleetStore()
		app := NewApplier(store)
		for _, seg := range log.segments {
			if res := mustReplay(b, seg, app.apply); res.torn {
				b.Fatal("fleet segment replayed torn")
			}
		}
		app.Close()
		b.StopTimer() // the check scans every shard; it is not recovery
		if got := store.NumSamples(); got != log.samples {
			b.Fatalf("replayed %d of %d samples", got, log.samples)
		}
		storeBytes = store.CompressedBytes()
		for _, tier := range store.RollupStats().Tiers {
			storeBytes += tier.Bytes
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(log.samples), "ns/sample")
	b.ReportMetric(float64(len(log.segments)), "segments")
	b.ReportMetric(float64(walBytes)/float64(log.samples), "wal_B/sample")
	b.ReportMetric(float64(storeBytes)/float64(log.samples), "store_B/sample")
}

// BenchmarkSnapshotLoadFleet is recovery's other half: a store written as a
// snapshot and loaded back — read, checksum, decode, and RestoreStore, which
// decodes every raw and tier chunk, adopts the sealed ones as they are and
// re-encodes each series' and each tier's last. "fleet" is the store the
// fleet WAL replays to: 64 minutes a series, so about a third of its chunks
// are last ones. "archive" is mixed_durable's shape: archiveAgents agents'
// series over archiveTicks ticks, six hours at the fleet's 10 s cadence, so
// each series holds 18 raw and 24 one-minute chunks and about 93 % of all
// chunks are sealed. Each reports ns/record over the raw samples and tier
// records the snapshot holds, and sealed/chunk; `make bench-restore` gates
// their allocs/op, a count that does not depend on the box.
func BenchmarkSnapshotLoadFleet(b *testing.B) {
	b.Run("fleet", func(b *testing.B) { benchSnapshotLoad(b, replayFleet(b)) })
	b.Run("archive", func(b *testing.B) { benchSnapshotLoad(b, archiveStore(b)) })
}

// archiveAgents and archiveTicks shape BenchmarkSnapshotLoadFleet's long
// archive: fleetSensors series an agent, fed the fleet's values.
const (
	archiveAgents = 16
	archiveTicks  = 2160
)

// archiveStore appends the long archive to a fresh fleet store.
func archiveStore(b *testing.B) *timeseries.Store {
	store := newFleetStore()
	n := archiveAgents * fleetSensors
	vals := newFleetValues(n)
	batch := make([]timeseries.BatchEntry, n)
	for tick := 0; tick < archiveTicks; tick++ {
		vals.next()
		for j := range batch {
			batch[j] = timeseries.BatchEntry{ID: fleetID(j/fleetSensors, j%fleetSensors), Kind: metric.Gauge, Unit: metric.UnitWatt, T: fleetT0 + int64(tick)*fleetStepMs, V: vals.value[j]}
		}
		if got, err := store.AppendBatch(batch); got != n || err != nil {
			b.Fatalf("tick %d: appended %d of %d: %v", tick, got, n, err)
		}
	}
	return store
}

// benchSnapshotLoad writes store as a snapshot and times loading it back.
func benchSnapshotLoad(b *testing.B, store *timeseries.Store) {
	dump := store.Dump()
	records, chunks, sealed := 0, 0, 0
	count := func(list []timeseries.ChunkDump) {
		for _, cd := range list {
			records += cd.Count
		}
		chunks += len(list)
		sealed += max(len(list)-1, 0)
	}
	for _, sd := range dump {
		count(sd.Chunks)
		for _, td := range sd.Tiers {
			count(td.Chunks)
		}
	}
	dir := b.TempDir()
	if _, err := writeSnapshot(dir, 1, store.ChunkSize(), dump); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(1))
	opts := []timeseries.Option{timeseries.WithRollups(timeseries.TierStep1m, timeseries.TierStep1h)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := loadSnapshot(path, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer() // the check scans every shard; it is not recovery
		if got.NumSamples() != store.NumSamples() {
			b.Fatalf("loaded %d of %d samples", got.NumSamples(), store.NumSamples())
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	b.ReportMetric(float64(sealed)/float64(chunks), "sealed/chunk")
}
