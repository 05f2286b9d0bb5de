package timeseries

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

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

// TestRefsStaleAfterEpochBump: every chunk-retiring operation invalidates
// outstanding refs; re-resolving yields a fresh, working ref for the same
// series.
func TestRefsStaleAfterEpochBump(t *testing.T) {
	id := refTestIDs()[0]
	bumps := []struct {
		name string
		bump func(s *Store)
	}{
		{"downsample", func(s *Store) { _, _ = s.Downsample(id, 1000) }},
		{"retain", func(s *Store) { s.Retain(0) }},
		{"retain-tier", func(s *Store) { s.RetainTier(4000, 0) }},
	}
	for _, tc := range bumps {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(8, WithRollups(4000))
			ref, err := s.Resolve(id, metric.Gauge, metric.UnitWatt)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := s.AppendRefs([]RefEntry{{Ref: ref, T: 1000, V: 1}}); n != 1 || err != nil {
				t.Fatalf("pre-bump append: %d, %v", n, err)
			}
			tc.bump(s)
			n, err := s.AppendRefs([]RefEntry{{Ref: ref, T: 2000, V: 2}})
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
				t.Fatalf("slot changed across epoch bump: %d vs %d", ref2.Slot(), ref.Slot())
			}
			if n, err := s.AppendRefs([]RefEntry{{Ref: ref2, T: 2000, V: 2}}); n != 1 || err != nil {
				t.Fatalf("post-bump append: %d, %v", n, err)
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

// TestRefIngestInterleavingsProperty is the tentpole parity property: random
// interleavings of keyed appends, batch appends and ref appends — with
// Downsample, Retain, RetainTier and full dump-restore cycles mixed in —
// leave a mixed-path store byte-identical (DeepEqual on dumps) to a store
// driven purely through the keyed path, with identical accept counts.
func TestRefIngestInterleavingsProperty(t *testing.T) {
	ids := refTestIDs()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		chunk := 2 + rng.Intn(24)
		opts := []Option{}
		if rng.Intn(2) == 0 {
			opts = append(opts, WithRollups(4000, 16000))
		}
		keyed := NewStore(chunk, opts...)
		mixed := NewStore(chunk, opts...)

		// Mixed-path ref cache, healed exactly the way real callers heal it:
		// on epoch change, drop everything and re-resolve on demand.
		refs := make(map[string]SeriesRef)
		epoch := mixed.RefEpoch()
		clock := make([]int64, len(ids))

		for op := 0; op < 120; op++ {
			switch r := rng.Intn(20); {
			case r == 0:
				step := int64(1000 * (1 + rng.Intn(4)))
				id := ids[rng.Intn(len(ids))]
				nk, _ := keyed.Downsample(id, step)
				nm, _ := mixed.Downsample(id, step)
				if nk != nm {
					t.Logf("op %d: downsample kept %d vs %d", op, nk, nm)
					return false
				}
			case r == 1:
				cutoff := clock[rng.Intn(len(ids))] - int64(rng.Intn(10000))
				keyed.Retain(cutoff)
				mixed.Retain(cutoff)
			case r == 2:
				cutoff := clock[rng.Intn(len(ids))] - int64(rng.Intn(30000))
				keyed.RetainTier(4000, cutoff)
				mixed.RetainTier(4000, cutoff)
			case r == 3:
				// Dump-restore both stores mid-stream; the dumps must agree
				// at the cut, and every cached ref must die with the old
				// store.
				dk, dm := keyed.Dump(), mixed.Dump()
				if !reflect.DeepEqual(dk, dm) {
					t.Logf("op %d: dumps diverged at restore point", op)
					return false
				}
				var err error
				if keyed, err = RestoreStore(chunk, dk, opts...); err != nil {
					t.Logf("op %d: restore keyed: %v", op, err)
					return false
				}
				if mixed, err = RestoreStore(chunk, dm, opts...); err != nil {
					t.Logf("op %d: restore mixed: %v", op, err)
					return false
				}
			default:
				// An append burst: same entries to both stores, the mixed
				// store choosing its ingest path at random.
				n := 1 + rng.Intn(5)
				entries := make([]BatchEntry, 0, n)
				for j := 0; j < n; j++ {
					i := rng.Intn(len(ids))
					dt := int64(rng.Intn(1500)) - 200 // occasional out-of-order
					clock[i] += dt
					entries = append(entries, BatchEntry{
						ID: ids[i], Kind: metric.Gauge, Unit: metric.UnitWatt,
						T: clock[i], V: float64(op*100 + j),
					})
				}
				nk, _ := keyed.AppendBatch(entries)
				var nm int
				if rng.Intn(2) == 0 {
					nm, _ = mixed.AppendBatch(entries)
				} else {
					if cur := mixed.RefEpoch(); cur != epoch {
						clear(refs)
						epoch = cur
					}
					rents := make([]RefEntry, 0, len(entries))
					for k := range entries {
						e := &entries[k]
						key := e.ID.Key()
						ref, ok := refs[key]
						if !ok {
							var err error
							ref, err = mixed.Resolve(e.ID, e.Kind, e.Unit)
							if err != nil {
								t.Logf("op %d: resolve: %v", op, err)
								return false
							}
							refs[key] = ref
						}
						rents = append(rents, RefEntry{Ref: ref, T: e.T, V: e.V})
					}
					var err error
					nm, err = mixed.AppendRefs(rents)
					if errors.Is(err, ErrStaleRef) {
						t.Logf("op %d: unexpected stale ref (single-threaded)", op)
						return false
					}
				}
				if nk != nm {
					t.Logf("op %d: keyed accepted %d, mixed accepted %d", op, nk, nm)
					return false
				}
			}
		}
		if !reflect.DeepEqual(keyed.Dump(), mixed.Dump()) {
			t.Log("final dumps diverged")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestResolveAppendRefsConcurrent hammers Resolve and AppendRefs from many
// goroutines while another goroutine bumps the ref epoch via Downsample and
// Retain — the invariants (under -race): no data race, no panic, no sample
// accepted through a stale ref, and every accepted sample is attributable.
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
			if i%2 == 0 {
				_, _ = s.Downsample(ids[0], 1000)
			} else {
				s.Retain(0)
			}
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
}

// TestRefCacheParityAndHealing: RefCache must be a drop-in for keyed
// AppendBatch — same accepted counts, same final state — and must heal
// transparently across epoch bumps.
func TestRefCacheParityAndHealing(t *testing.T) {
	ids := refTestIDs()
	plain := NewStore(8)
	cached := NewStore(8)
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
		if r%10 == 9 {
			// Invalidate every cached ref on both stores; the cache must
			// re-resolve silently on the next batch.
			plain.Retain(now - 3000)
			cached.Retain(now - 3000)
		}
	}
	if !reflect.DeepEqual(plain.Dump(), cached.Dump()) {
		t.Fatal("RefCache-driven store diverged from keyed store")
	}
	if st := cached.RefStats(); st.Resolves < uint64(len(ids))*2 {
		t.Fatalf("cache never re-resolved after invalidation: %+v", st)
	}
}
