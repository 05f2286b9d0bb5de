package persist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
	"repro/internal/tsmodel"
)

// TestDurableStoreModel checks a durable store against the reference model
// (internal/tsmodel): the generated op stream goes to a DurableStore that
// fsyncs every write, and every restore point is a real reopen, after a
// clean Close (recovery from the snapshot) or a Crash (recovery by WAL
// replay). After every op the accept counts and retention are checked
// against the model, and the store's dump — its chunks, tiers and
// watermarks, so every read answers alike — against a plain twin store fed
// the same ops through AppendBatch, the store TestStoreModel holds
// to the model on every read path.
// `go test -run 'TestDurableStoreModel/seed=N$'` replays a failure.
func TestDurableStoreModel(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := tsmodel.NewGen(rand.New(rand.NewSource(seed)))
			dir := t.TempDir()
			opts := Options{ChunkSize: g.ChunkSize, Fsync: FsyncAlways, StoreOptions: []timeseries.Option{timeseries.WithRollups(g.Tiers...)}}
			d, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if d != nil {
					_ = d.Close()
				}
			}()
			twin := timeseries.NewStore(g.ChunkSize, opts.StoreOptions...)
			m := tsmodel.New(len(g.Tiers) > 0)
			refs := make(map[string]timeseries.SeriesRef) // minted on the current d
			for i := 0; i < 100; i++ {
				op := g.Next()
				switch op.Kind {
				case tsmodel.Append, tsmodel.Batch, tsmodel.Refs:
					entries, want := make([]timeseries.BatchEntry, len(op.Entries)), 0
					for j, e := range op.Entries {
						entries[j] = timeseries.BatchEntry{ID: e.ID, Kind: metric.Gauge, Unit: metric.UnitWatt, T: e.T, V: e.V}
						if m.Append(e.ID, e.T, e.V) {
							want++
						}
					}
					got := 0
					switch op.Kind {
					case tsmodel.Append:
						for _, e := range entries {
							if d.Append(e.ID, e.Kind, e.Unit, e.T, e.V) == nil {
								got++
							}
						}
					case tsmodel.Batch:
						got, _ = d.AppendBatch(entries)
					default:
						rents := make([]timeseries.RefEntry, len(entries))
						for j, e := range entries {
							if _, ok := refs[e.ID.Key()]; !ok {
								refs[e.ID.Key()], _ = d.Resolve(e.ID, e.Kind, e.Unit)
							}
							rents[j] = timeseries.RefEntry{Ref: refs[e.ID.Key()], T: e.T, V: e.V}
						}
						got, _ = d.AppendRefs(rents)
					}
					if n, _ := twin.AppendBatch(entries); got != want || n != want {
						err = fmt.Errorf("store accepted %d, twin %d, model %d", got, n, want)
					}
				case tsmodel.Retain:
					var n int
					if n, err = d.Retain(op.Cutoff); err == nil {
						twin.Retain(op.Cutoff)
						err = m.Retain(op.Cutoff, n, func(key string) int {
							id, _ := d.Store().IDForKey(key)
							count := 0
							_ = d.Store().Each(id, math.MinInt64, math.MaxInt64, func(metric.Sample) bool { count++; return true })
							return count
						})
					}
				case tsmodel.RetainTier:
					_, err = d.RetainTier(op.Step, op.Cutoff)
					twin.RetainTier(op.Step, op.Cutoff)
				case tsmodel.Crash:
					d.Crash()
					d, err = Open(dir, opts)
					clear(refs)
				case tsmodel.Restore:
					if err = d.Close(); err == nil {
						d, err = Open(dir, opts)
					}
					clear(refs)
				}
				if err == nil && !reflect.DeepEqual(d.Store().Dump(), twin.Dump()) {
					err = errors.New("dump differs from the AppendBatch twin's")
				}
				if err != nil {
					t.Fatalf("op %d %+v: %v", i, op, err)
				}
			}
		})
	}
}
