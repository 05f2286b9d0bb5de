package timeseries

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/metric"
)

func seriesID(i int) metric.ID {
	return metric.ID{Name: "power", Labels: metric.NewLabels("node", fmt.Sprintf("n%03d", i))}
}

// TestStoreParallelReadersWriters hammers the store with concurrent
// appenders, range readers, Latest/Snapshot readers and Select scans.
// Run under -race this is the shard/series lock-discipline test.
func TestStoreParallelReadersWriters(t *testing.T) {
	s := NewStore(8) // small chunks force frequent chunk rollover
	const (
		nSeries = 32
		nWrites = 400
	)
	var wg sync.WaitGroup
	// Writers: one per series, appending in order.
	for i := 0; i < nSeries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := seriesID(i)
			for k := 0; k < nWrites; k++ {
				if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(k)*1000, float64(k)); err != nil {
					t.Errorf("append series %d sample %d: %v", i, k, err)
					return
				}
			}
		}(i)
	}
	// Readers: query, Latest, Select and Snapshot while writes proceed.
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				id := seriesID((r*7 + k) % nSeries)
				if samples, err := collect(s, id, 0, int64(nWrites)*1000); err == nil {
					for j := 1; j < len(samples); j++ {
						if samples[j].T <= samples[j-1].T {
							t.Errorf("unordered samples from concurrent query")
							return
						}
					}
				}
				s.Latest(id)
				s.Select("power", nil)
				s.NumSamples()
				s.Snapshot("power", nil)
			}
		}(r)
	}
	wg.Wait()
	if got := s.NumSeries(); got != nSeries {
		t.Fatalf("NumSeries = %d, want %d", got, nSeries)
	}
	if got := s.NumSamples(); got != nSeries*nWrites {
		t.Fatalf("NumSamples = %d, want %d", got, nSeries*nWrites)
	}
	for i := 0; i < nSeries; i++ {
		sm, ok := s.Latest(seriesID(i))
		if !ok || sm.T != int64(nWrites-1)*1000 {
			t.Fatalf("series %d: Latest = %+v ok=%v", i, sm, ok)
		}
	}
}

// TestStoreQueryChunkSeek checks the binary-search chunk seek against every
// window alignment: starts/ends inside chunks, on boundaries, before the
// first and past the last sample.
func TestStoreQueryChunkSeek(t *testing.T) {
	s := NewStore(10)
	id := seriesID(0)
	const n = 95 // 9 full chunks + one partial
	for i := 0; i < n; i++ {
		if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*100, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	windows := [][2]int64{
		{0, 9500}, {-50, 20000}, {0, 1}, {100, 200}, {950, 1050},
		{1000, 1000}, {4200, 4200}, {999, 1001}, {0, 1000}, {1000, 2000},
		{8900, 9500}, {9400, 9500}, {9401, 9500}, {9500, 20000}, {-100, 0},
		{350, 6250}, {4999, 5001},
	}
	for _, w := range windows {
		from, to := w[0], w[1]
		got, err := collect(s, id, from, to)
		if err != nil {
			t.Fatalf("window [%d,%d): %v", from, to, err)
		}
		var want []metric.Sample
		for i := 0; i < n; i++ {
			ts := int64(i) * 100
			if ts >= from && ts < to {
				want = append(want, metric.Sample{T: ts, V: float64(i)})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("window [%d,%d): %d samples, want %d", from, to, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window [%d,%d)[%d] = %+v, want %+v", from, to, i, got[i], want[i])
			}
		}
	}
}

// TestStoreLatestIsCached verifies Latest reflects appends and retention
// without decoding chunks.
func TestStoreLatestIsCached(t *testing.T) {
	s := NewStore(4)
	id := seriesID(1)
	if _, ok := s.Latest(id); ok {
		t.Fatal("Latest on unknown series should report false")
	}
	for i := 0; i < 10; i++ {
		if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*1000, float64(i*i)); err != nil {
			t.Fatal(err)
		}
		sm, ok := s.Latest(id)
		if !ok || sm.T != int64(i)*1000 || sm.V != float64(i*i) {
			t.Fatalf("after append %d: Latest = %+v ok=%v", i, sm, ok)
		}
	}
	// Retaining everything away must clear the cache, like the seed
	// behaviour of an empty chunk list.
	if dropped := s.Retain(1 << 60); dropped == 0 {
		t.Fatal("retain dropped nothing")
	}
	if _, ok := s.Latest(id); ok {
		t.Fatal("Latest after full retention should report false")
	}
	// And the series accepts fresh (even older) samples again.
	if err := s.Append(id, metric.Gauge, metric.UnitWatt, 1000, 42); err != nil {
		t.Fatalf("append after full retention: %v", err)
	}
	if sm, ok := s.Latest(id); !ok || sm.V != 42 {
		t.Fatalf("Latest after re-append = %+v ok=%v", sm, ok)
	}
}

// TestStoreSelectNameIndex verifies named selects hit the name index and
// preserve first-ingest order, including label filtering.
func TestStoreSelectNameIndex(t *testing.T) {
	s := NewStore(0)
	var want []string
	for i := 0; i < 10; i++ {
		id := metric.ID{Name: "temp", Labels: metric.NewLabels("node", fmt.Sprintf("n%02d", i), "rack", fmt.Sprintf("r%d", i%2))}
		if err := s.Append(id, metric.Gauge, metric.UnitCelsius, 1000, 20); err != nil {
			t.Fatal(err)
		}
		want = append(want, id.Key())
		other := metric.ID{Name: "noise", Labels: metric.NewLabels("node", fmt.Sprintf("n%02d", i))}
		if err := s.Append(other, metric.Gauge, metric.UnitNone, 1000, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Select("temp", nil)
	if len(got) != len(want) {
		t.Fatalf("Select(temp) returned %d IDs, want %d", len(got), len(want))
	}
	for i, id := range got {
		if id.Key() != want[i] {
			t.Fatalf("Select order[%d] = %s, want %s (first-ingest order)", i, id.Key(), want[i])
		}
	}
	r1 := s.Select("temp", metric.NewLabels("rack", "r1"))
	if len(r1) != 5 {
		t.Fatalf("Select(temp, rack=r1) = %d IDs, want 5", len(r1))
	}
	if sel := s.Select("absent", nil); len(sel) != 0 {
		t.Fatalf("Select(absent) = %d IDs, want 0", len(sel))
	}
	if all := s.Select("", nil); len(all) != 20 {
		t.Fatalf("Select(\"\") = %d IDs, want 20", len(all))
	}
}

// TestStoreAppendBatch covers acceptance, per-sample rejection counting and
// series auto-creation.
func TestStoreAppendBatch(t *testing.T) {
	s := NewStore(0)
	mk := func(i int, t int64) BatchEntry {
		return BatchEntry{ID: seriesID(i), Kind: metric.Gauge, Unit: metric.UnitWatt, T: t, V: float64(t)}
	}
	appended, err := s.AppendBatch([]BatchEntry{
		mk(0, 1000), mk(1, 1000), mk(0, 2000), mk(1, 2000),
	})
	if err != nil || appended != 4 {
		t.Fatalf("AppendBatch = (%d, %v), want (4, nil)", appended, err)
	}
	// Out-of-order entries are rejected individually, not fatally.
	appended, err = s.AppendBatch([]BatchEntry{
		mk(0, 1500), // stale
		mk(0, 3000),
		mk(1, 3000),
		mk(1, 2500), // stale
	})
	if appended != 2 {
		t.Fatalf("AppendBatch accepted %d, want 2", appended)
	}
	if err == nil {
		t.Fatal("AppendBatch should surface the first ingest error")
	}
	if got := s.NumSamples(); got != 6 {
		t.Fatalf("NumSamples = %d, want 6", got)
	}
	sm, _ := s.Latest(seriesID(0))
	if sm.T != 3000 {
		t.Fatalf("Latest(0).T = %d, want 3000", sm.T)
	}
}

// TestCursorTailCopyUnderAppend: a reader copying the open chunk's bytes
// while the writer appends must see whole samples — every prefix it decodes
// is exactly the stream so far. The bit writer keeps no pending word outside
// the buffer, so the copy taken under the read lock is complete; a deferred
// flush would show here as a short or torn tail (and, under -race, as a
// write from the reader's side of the lock). The rollup tiers' open chunks
// are read the same way through the planned path: the 4 s tier's windows of
// four samples, and the 1 s tier's windows of one, whose chunks fill below
// the chunk size in written records and are trimmed only when the next
// opens. Chunks roll over (and are trimmed) many times during the run, so
// the sealed-pointer hand-off is exercised too.
func TestCursorTailCopyUnderAppend(t *testing.T) {
	s := NewStore(16, WithRollups(1000, 4000))
	id := seriesID(0)
	const n = 4000
	value := func(k int) float64 { return float64(k%17) * 1.25 }
	if err := s.Append(id, metric.Gauge, metric.UnitWatt, 0, value(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; k < n; k++ {
			if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(k)*1000, value(k)); err != nil {
				t.Errorf("append %d: %v", k, err)
				return
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false // one last pass over the finished series
		default:
		}
		cur, err := s.cursor(id, 0, n*1000)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for cur.Next() {
			if sm := cur.At(); sm.T != int64(k)*1000 || sm.V != value(k) {
				t.Fatalf("sample %d read as %v under a concurrent append", k, sm)
			}
			k++
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("cursor after %d samples: %v", k, err)
		}
		cur.Close()
		if _, _, err := s.ReducePlanned(id, 0, n*1000, AggSum); err != nil {
			t.Fatalf("planned reduce: %v", err)
		}
		// From 1 s, off the 4 s tier's windows: the 1 s tier serves it.
		if _, _, err := s.ReducePlanned(id, 1000, n*1000, AggSum); err != nil {
			t.Fatalf("planned reduce over the 1 s tier: %v", err)
		}
	}
	if got := s.NumSamples(); got != n {
		t.Fatalf("%d samples stored, want %d", got, n)
	}
}
