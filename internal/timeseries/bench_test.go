package timeseries

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metric"
)

// BenchmarkChunkAppend measures Gorilla encode throughput on realistic
// slowly-varying telemetry.
func BenchmarkChunkAppend(b *testing.B) {
	c := NewChunk()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Append(int64(i)*60000, 55+math.Sin(float64(i)/50))
	}
}

// BenchmarkChunkIterate measures decode throughput over a full chunk.
func BenchmarkChunkIterate(b *testing.B) {
	c := NewChunk()
	for i := 0; i < 10_000; i++ {
		_ = c.Append(int64(i)*60000, 55+math.Sin(float64(i)/50))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := c.Iter()
		for it.Next() {
		}
		if it.Err() != nil {
			b.Fatal(it.Err())
		}
	}
}

// BenchmarkStoreSnapshot measures the "current state vector" query pattern
// diagnostic analytics issue repeatedly.
func BenchmarkStoreSnapshot(b *testing.B) {
	s := NewStore(0)
	for n := 0; n < 64; n++ {
		id := metric.ID{Name: "power", Labels: metric.NewLabels("node", string(rune('a'+n%26))+string(rune('0'+n/26)))}
		for i := int64(0); i < 1000; i++ {
			_ = s.Append(id, metric.Gauge, metric.UnitWatt, i*1000, float64(i))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := s.Snapshot("power", nil); len(snap) != 64 {
			b.Fatal("snapshot size")
		}
	}
}

// --- Store-vs-global-lock ablation ---
//
// globalLockStore replicates the seed store design: one RWMutex serializing
// every append and query across all series. The ablation benches below run
// the identical mixed workload against it and against Store (one registry
// RWMutex plus a lock per series); run with -cpu 1,2 to expose contention.

type globalSeries struct {
	chunks []*Chunk
	lastT  int64
}

type globalLockStore struct {
	mu        sync.RWMutex
	series    map[string]*globalSeries
	chunkSize int
}

func newGlobalLockStore() *globalLockStore {
	return &globalLockStore{series: make(map[string]*globalSeries), chunkSize: DefaultChunkSize}
}

func (g *globalLockStore) append(id metric.ID, t int64, v float64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := id.Key()
	s := g.series[key]
	if s == nil {
		s = &globalSeries{lastT: math.MinInt64}
		g.series[key] = s
	}
	if t <= s.lastT && len(s.chunks) > 0 {
		return fmt.Errorf("timeseries: out-of-order sample for %s: %d <= %d", id.Key(), t, s.lastT)
	}
	if len(s.chunks) == 0 || s.chunks[len(s.chunks)-1].Count() >= g.chunkSize {
		s.chunks = append(s.chunks, NewChunk())
	}
	if err := s.chunks[len(s.chunks)-1].Append(t, v); err != nil {
		return err
	}
	s.lastT = t
	return nil
}

func (g *globalLockStore) query(id metric.ID, from, to int64) ([]metric.Sample, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s := g.series[id.Key()]
	if s == nil {
		return nil, fmt.Errorf("timeseries: unknown series %s", id.Key())
	}
	var out []metric.Sample
	for _, c := range s.chunks {
		if c.Count() == 0 || c.LastTime() < from || c.FirstTime() >= to {
			continue
		}
		it := c.Iter()
		for it.Next() {
			sm := it.At()
			if sm.T >= from && sm.T < to {
				out = append(out, sm)
			}
		}
		if err := it.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type mixedStore interface {
	appendOne(id metric.ID, t int64, v float64) error
	queryRange(id metric.ID, from, to int64) ([]metric.Sample, error)
}

type globalAdapter struct{ s *globalLockStore }

func (a globalAdapter) appendOne(id metric.ID, t int64, v float64) error { return a.s.append(id, t, v) }
func (a globalAdapter) queryRange(id metric.ID, from, to int64) ([]metric.Sample, error) {
	return a.s.query(id, from, to)
}

type storeAdapter struct{ s *Store }

func (a storeAdapter) appendOne(id metric.ID, t int64, v float64) error {
	return a.s.Append(id, metric.Gauge, metric.UnitWatt, t, v)
}
func (a storeAdapter) queryRange(id metric.ID, from, to int64) ([]metric.Sample, error) {
	return a.s.Query(id, from, to)
}

func benchMixedParallel(b *testing.B, st mixedStore) {
	const nSeries = 64
	ids := make([]metric.ID, nSeries)
	for s := 0; s < nSeries; s++ {
		ids[s] = metric.ID{Name: "power", Labels: metric.NewLabels("node", string(rune('a'+s%26))+string(rune('a'+s/26)))}
		for i := 0; i < 10_000; i++ {
			if err := st.appendOne(ids[s], int64(i)*1000, float64(i%100)); err != nil {
				b.Fatal(err)
			}
		}
	}
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := ctr.Add(1)
			id := ids[n%nSeries]
			if n%8 == 0 {
				_ = st.appendOne(id, 20_000_000+n*1000, float64(n))
			} else {
				if _, err := st.queryRange(id, 1_000_000, 2_000_000); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkStoreMixedParallel_GlobalLock(b *testing.B) {
	benchMixedParallel(b, globalAdapter{newGlobalLockStore()})
}

func BenchmarkStoreMixedParallel_Store(b *testing.B) {
	benchMixedParallel(b, storeAdapter{NewStore(0)})
}

// BenchmarkStoreQuerySweep is the materializing read: every sweep decodes
// the whole 50k-sample window into one fresh slice.
func BenchmarkStoreQuerySweep(b *testing.B) {
	s := NewStore(0)
	id := metric.ID{Name: "power", Labels: metric.NewLabels("node", "n01")}
	for i := 0; i < 50_000; i++ {
		if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*1000, 55+math.Sin(float64(i)/50)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.Query(id, 0, 1<<60); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.Query(id, 0, 1<<60)
		if err != nil || len(out) != 50_000 {
			b.Fatalf("query: %d samples, %v", len(out), err)
		}
	}
}

// --- Streaming cursor engine (PR 4) ---
//
// The cursor is the allocation-free read path under every pushdown
// reducer. The sweep resolves the series handle once (building the map
// key is the caller's amortizable cost) and then must not allocate at
// all; `make bench-allocs` gates it at 0 allocs/op.
func BenchmarkStoreCursorSweep(b *testing.B) {
	s := NewStore(0)
	id := metric.ID{Name: "power", Labels: metric.NewLabels("node", "n01")}
	for i := 0; i < 50_000; i++ {
		if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*1000, 55+math.Sin(float64(i)/50)); err != nil {
			b.Fatal(err)
		}
	}
	ss := s.lookup(id.Key())
	if ss == nil {
		b.Fatal("series missing")
	}
	cur := s.newCursor(ss, 0, 1<<60) // warm the pool
	for cur.Next() {
	}
	cur.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := s.newCursor(ss, 0, 1<<60)
		n := 0
		for cur.Next() {
			n++
		}
		if cur.Err() != nil || n != 50_000 {
			b.Fatalf("cursor: %d samples, %v", n, cur.Err())
		}
		cur.Close()
	}
}

// BenchmarkStoreReduceSweep is the pushdown counterpart of the Query
// sweep: the same 50k-sample window folded to a mean without ever
// materializing the series.
func BenchmarkStoreReduceSweep(b *testing.B) {
	s := NewStore(0)
	id := metric.ID{Name: "power", Labels: metric.NewLabels("node", "n01")}
	for i := 0; i < 50_000; i++ {
		if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*1000, 55+math.Sin(float64(i)/50)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, n, err := s.Reduce(id, 0, 1<<60, AggMean)
		if err != nil || n != 50_000 || v == 0 {
			b.Fatalf("reduce: (%v, %d, %v)", v, n, err)
		}
	}
}
