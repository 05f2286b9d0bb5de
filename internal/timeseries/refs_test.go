package timeseries

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/metric"
)

// refTestIDs is the series universe the ref tests draw from.
func refTestIDs() []metric.ID {
	return []metric.ID{
		{Name: "node_power_watts", Labels: metric.NewLabels("node", "n00")},
		{Name: "node_power_watts", Labels: metric.NewLabels("node", "n01")},
		{Name: "node_cpu_temp_celsius", Labels: metric.NewLabels("node", "n00", "rack", "r1")},
		{Name: "facility_pue"},
	}
}

// TestAppendRefsParity: a store ingested purely through Resolve+AppendRefs
// must dump DeepEqual-identical to one ingested through keyed AppendBatch —
// the fast path is an optimization, never a semantic fork.
func TestAppendRefsParity(t *testing.T) {
	ids := refTestIDs()
	keyed := NewStore(8, WithRollups(4000))
	refed := NewStore(8, WithRollups(4000))

	refs := make([]SeriesRef, len(ids))
	for i, id := range ids {
		ref, err := refed.Resolve(id, metric.Gauge, metric.UnitWatt)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	for r := 0; r < 200; r++ {
		now := int64(1000 + r*500)
		var batch []BatchEntry
		var rents []RefEntry
		for i, id := range ids {
			v := float64(r*10 + i)
			batch = append(batch, BatchEntry{ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, T: now, V: v})
			rents = append(rents, RefEntry{Ref: refs[i], T: now, V: v})
		}
		nk, errK := keyed.AppendBatch(batch)
		nr, errR := refed.AppendRefs(rents)
		if nk != nr || (errK == nil) != (errR == nil) {
			t.Fatalf("op %d: keyed (%d,%v) vs refs (%d,%v)", r, nk, errK, nr, errR)
		}
	}
	// One more batch, shaped A A B A with the second A out of order: the ref
	// path holds A's lock across the run of two, must reject the second
	// sample inside that hold, and must come back to A after B.
	late := int64(1000 + 200*500)
	var batch []BatchEntry
	var rents []RefEntry
	for _, e := range []struct {
		series int
		t      int64
	}{{0, late}, {0, late - 250}, {1, late}, {0, late + 250}} {
		batch = append(batch, BatchEntry{ID: ids[e.series], Kind: metric.Gauge, Unit: metric.UnitWatt, T: e.t, V: 7})
		rents = append(rents, RefEntry{Ref: refs[e.series], T: e.t, V: 7})
	}
	nk, errK := keyed.AppendBatch(batch)
	nr, errR := refed.AppendRefs(rents)
	if nk != 3 || nr != 3 || errK == nil || errR == nil || errK.Error() != errR.Error() {
		t.Fatalf("A A B A: keyed (%d,%v) vs refs (%d,%v), want 3 appended and the same out-of-order error", nk, errK, nr, errR)
	}
	// Keyed path also registers the series lazily; both stores saw the same
	// first-touch order, so the dumps must match in order and content.
	if !reflect.DeepEqual(keyed.Dump(), refed.Dump()) {
		t.Fatal("ref-ingested store dump differs from keyed-ingested store dump")
	}
	if got := refed.RefStats(); got.RefSamples != 200*uint64(len(ids))+3 || got.Resolves != uint64(len(ids)) {
		t.Fatalf("unexpected ref stats: %+v", got)
	}
	// The rollup counters are settled once per call on both paths; they
	// must still count every fold and seal.
	ks, rs := keyed.RollupStats(), refed.RollupStats()
	if ks.Folds != rs.Folds || ks.Seals != rs.Seals || rs.Folds != 200*uint64(len(ids))+3 || rs.Seals == 0 {
		t.Fatalf("rollup counters: keyed folds=%d seals=%d, refs folds=%d seals=%d", ks.Folds, ks.Seals, rs.Folds, rs.Seals)
	}
}

// TestAppendRefsRejectsLikeKeyed: out-of-order and duplicate timestamps are
// rejected identically on both paths (count and error class).
func TestAppendRefsRejectsLikeKeyed(t *testing.T) {
	id := refTestIDs()[0]
	keyed := NewStore(4)
	refed := NewStore(4)
	ref, err := refed.Resolve(id, metric.Gauge, metric.UnitWatt)
	if err != nil {
		t.Fatal(err)
	}
	stream := []int64{1000, 2000, 1500, 2000, 3000} // two rejects
	for _, ts := range stream {
		nk, _ := keyed.AppendBatch([]BatchEntry{{ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, T: ts, V: 1}})
		nr, _ := refed.AppendRefs([]RefEntry{{Ref: ref, T: ts, V: 1}})
		if nk != nr {
			t.Fatalf("t=%d: keyed appended %d, refs appended %d", ts, nk, nr)
		}
	}
	if !reflect.DeepEqual(keyed.Dump(), refed.Dump()) {
		t.Fatal("dumps diverged on rejection handling")
	}
}

// TestRefsStaleAfterEpochBump: a ref goes stale only when its store does.
// Retention leaves it live; a dump-restore builds a new store instance with
// a new epoch, where the old ref is refused and re-resolving yields a fresh,
// working ref for the same series at the same slot.
func TestRefsStaleAfterEpochBump(t *testing.T) {
	id := refTestIDs()[0]
	retentions := []struct {
		name   string
		retain func(s *Store)
	}{
		{"retain", func(s *Store) { s.Retain(0) }},
		{"retain-tier", func(s *Store) { s.RetainTier(4000, 0) }},
	}
	for _, tc := range retentions {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(8, WithRollups(4000))
			ref, err := s.Resolve(id, metric.Gauge, metric.UnitWatt)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := s.AppendRefs([]RefEntry{{Ref: ref, T: 1000, V: 1}}); n != 1 || err != nil {
				t.Fatalf("first append: %d, %v", n, err)
			}
			tc.retain(s)
			if n, err := s.AppendRefs([]RefEntry{{Ref: ref, T: 2000, V: 2}}); n != 1 || err != nil {
				t.Fatalf("append after %s: %d, %v", tc.name, n, err)
			}
			s, err = RestoreStore(s.ChunkSize(), s.Dump(), WithRollups(4000))
			if err != nil {
				t.Fatal(err)
			}
			n, err := s.AppendRefs([]RefEntry{{Ref: ref, T: 3000, V: 3}})
			if n != 0 || !errors.Is(err, ErrStaleRef) {
				t.Fatalf("stale ref accepted: %d, %v", n, err)
			}
			if _, _, _, ok := s.RefInfo(ref); ok {
				t.Fatal("RefInfo resolved a stale ref")
			}
			ref2, err := s.Resolve(id, metric.Gauge, metric.UnitWatt)
			if err != nil {
				t.Fatal(err)
			}
			if ref2 == ref {
				t.Fatal("re-resolve returned the invalidated ref")
			}
			if ref2.Slot() != ref.Slot() {
				t.Fatalf("slot changed across restore: %d vs %d", ref2.Slot(), ref.Slot())
			}
			if n, err := s.AppendRefs([]RefEntry{{Ref: ref2, T: 3000, V: 3}}); n != 1 || err != nil {
				t.Fatalf("append after re-resolve: %d, %v", n, err)
			}
		})
	}
}

// TestRefsNeverCrossStores: a restored store draws a fresh epoch from the
// process-global counter, so refs minted pre-restore are stale — even
// though the restored store holds the same series at the same slots.
func TestRefsNeverCrossStores(t *testing.T) {
	id := refTestIDs()[0]
	s := NewStore(8)
	ref, err := s.Resolve(id, metric.Gauge, metric.UnitWatt)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := s.AppendRefs([]RefEntry{{Ref: ref, T: 1000, V: 1}}); n != 1 {
		t.Fatal("seed append failed")
	}
	re, err := RestoreStore(s.ChunkSize(), s.Dump())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := re.AppendRefs([]RefEntry{{Ref: ref, T: 2000, V: 2}}); n != 0 || !errors.Is(err, ErrStaleRef) {
		t.Fatalf("cross-store ref accepted: %d, %v", n, err)
	}
}

// TestResolveAppendRefsConcurrent hammers Resolve and AppendRefs from many
// goroutines while another goroutine runs Retain — the invariants (under
// -race): no data race, no panic, no ref goes stale, and every accepted
// sample is attributable.
func TestResolveAppendRefsConcurrent(t *testing.T) {
	ids := refTestIDs()
	s := NewStore(16)
	const workers = 8
	var wg sync.WaitGroup
	var accepted [workers]uint64

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ts := int64(w) * 1_000_000 // disjoint time ranges per worker
			id := ids[w%len(ids)]
			var ref SeriesRef
			var haveRef bool
			for i := 0; i < 3000; i++ {
				if !haveRef {
					r, err := s.Resolve(id, metric.Gauge, metric.UnitWatt)
					if err != nil {
						t.Errorf("worker %d: resolve: %v", w, err)
						return
					}
					ref, haveRef = r, true
				}
				ts += int64(1 + rng.Intn(50))
				n, err := s.AppendRefs([]RefEntry{{Ref: ref, T: ts, V: float64(i)}})
				accepted[w] += uint64(n)
				if errors.Is(err, ErrStaleRef) {
					haveRef = false // re-resolve next iteration
				}
				// Other errors are out-of-order rejects against a worker
				// sharing this series from a later time range: not counted,
				// not fatal — exactly the production contract.
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			s.Retain(0)
		}
	}()
	wg.Wait()
	st := s.RefStats()
	var total uint64
	for w := range accepted {
		total += accepted[w]
	}
	if st.RefSamples != total {
		t.Fatalf("store counted %d ref samples, workers accepted %d", st.RefSamples, total)
	}
	if st.StaleRefs != 0 {
		t.Fatalf("%d entries went stale under retention", st.StaleRefs)
	}
}

// swapAppender is a RefAppender whose store can be replaced mid-stream, the
// way a harness swaps in a recovered store.
type swapAppender struct{ *Store }

// TestRefCacheParityAndHealing: RefCache must be a drop-in for keyed
// AppendBatch — same accepted counts, same final state — and must heal
// transparently when the store behind its appender is swapped.
func TestRefCacheParityAndHealing(t *testing.T) {
	ids := refTestIDs()
	plain := NewStore(8)
	cached := &swapAppender{NewStore(8)}
	cache := NewRefCache(cached)
	for r := 0; r < 50; r++ {
		now := int64(1000 + r*500)
		var batch []BatchEntry
		for i, id := range ids {
			batch = append(batch, BatchEntry{ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, T: now, V: float64(r*10 + i)})
		}
		np, _ := plain.AppendBatch(batch)
		nc, err := cache.AppendBatch(batch)
		if np != nc || err != nil {
			t.Fatalf("op %d: plain %d vs cache %d (%v)", r, np, nc, err)
		}
		if r%10 == 4 {
			// Swap in a restored copy: every cached ref names the old store,
			// and the cache must re-resolve silently on the next batch.
			plain.Retain(now - 3000)
			cached.Retain(now - 3000)
			restored, err := RestoreStore(8, cached.Dump())
			if err != nil {
				t.Fatal(err)
			}
			cached.Store = restored
		}
	}
	if !reflect.DeepEqual(plain.Dump(), cached.Dump()) {
		t.Fatal("RefCache-driven store diverged from keyed store")
	}
	if st := cached.RefStats(); st.Resolves != uint64(len(ids)) || st.StaleRefs != 0 {
		t.Fatalf("cache did not re-resolve each series once on the swapped-in store: %+v", st)
	}
}
