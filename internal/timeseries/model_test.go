package timeseries

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/metric"
	"repro/internal/tsmodel"
)

var modelFns = []AggFunc{AggMean, AggMin, AggMax, AggSum, AggCount, AggStd, AggP95, AggRate}

// TestStoreModel runs seeded op streams of every kind; `go test -run
// 'TestStoreModel/seed=N$'` replays a failure.
func TestStoreModel(t *testing.T) {
	runSeeds(t, 40, 80, anyShape, nil)
}

// The focused legs below run the same driver on op streams narrowed to one
// part of the contract, so a failure there names the part it breaks.
var (
	appendKinds = []tsmodel.Kind{tsmodel.Append, tsmodel.Batch, tsmodel.Refs}
	anyShape    = func(*tsmodel.Gen) bool { return true }
)

// TestStoreAppendModelProperty: appends alone, through all three paths, so
// series grow long across many chunks; contents and accept counts must
// match the model's.
func TestStoreAppendModelProperty(t *testing.T) {
	runSeeds(t, 12, 120, anyShape, appendKinds)
}

// TestStoreInvariantsProperty: appends and retentions, no restores, so the
// Retain bounds are checked against long-lived stores.
func TestStoreInvariantsProperty(t *testing.T) {
	runSeeds(t, 12, 120, anyShape, append([]tsmodel.Kind{tsmodel.Retain, tsmodel.RetainTier}, appendKinds...))
}

// TestRefIngestInterleavingsProperty: appends and restores, so refs minted
// before a restore meet the fresh store and the dump is compared with the
// AppendBatch twin's often.
func TestRefIngestInterleavingsProperty(t *testing.T) {
	runSeeds(t, 12, 120, anyShape, append([]tsmodel.Kind{tsmodel.Restore, tsmodel.Crash}, appendKinds...))
}

// TestCursorPushdownEquivalenceProperty: untiered stores only, where every
// read is a raw scan and the k/10 values pin the summation order of each
// pushdown reducer.
func TestCursorPushdownEquivalenceProperty(t *testing.T) {
	runSeeds(t, 12, 80, func(g *tsmodel.Gen) bool { return len(g.Tiers) == 0 }, nil)
}

// TestPlannerPropertyParity: tiered stores only, so planned answers are
// served from the tiers and held to the model on retention-aligned windows.
func TestPlannerPropertyParity(t *testing.T) {
	runSeeds(t, 12, 80, func(g *tsmodel.Gen) bool { return len(g.Tiers) > 0 }, nil)
}

// runSeeds runs ops operations of the given kinds (nil: every kind) on
// seeds [0, n), one subtest each; a seed whose first store shape fails
// shape draws again from the same source.
func runSeeds(t *testing.T, n int64, ops int, shape func(*tsmodel.Gen) bool, kinds []tsmodel.Kind) {
	for seed := int64(0); seed < n; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			g := tsmodel.NewGen(r)
			for !shape(g) {
				g = tsmodel.NewGen(r)
			}
			runModel(t, g, kinds, func(i int) bool { return i < ops })
		})
	}
}

// FuzzStoreModel feeds the same generator from fuzz bytes.
func FuzzStoreModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tape := tsmodel.Tape(data)
		runModel(t, tsmodel.NewGen(&tape), nil, func(i int) bool { return len(tape) > 0 && i < 256 })
	})
}

// runModel checks a store against the reference model (internal/tsmodel):
// the generated op stream goes to the store, to a twin fed only through
// AppendBatch, and to the model. After every op the accept counts, the store's
// contents and every reduction are compared with the model's; at every
// restore point the store's dump must equal the twin's. Ops of a kind not
// in kinds are drawn and dropped; nil keeps every kind.
func runModel(t *testing.T, g *tsmodel.Gen, kinds []tsmodel.Kind, more func(i int) bool) {
	opts := []Option{WithRollups(g.Tiers...)}
	s, twin := NewStore(g.ChunkSize, opts...), NewStore(g.ChunkSize, opts...)
	m := tsmodel.New(len(g.Tiers) > 0)
	refs := make(map[string]SeriesRef) // minted on the current s
	for i := 0; more(i); i++ {
		op := g.Next()
		for kinds != nil && !slices.Contains(kinds, op.Kind) {
			op = g.Next()
		}
		var err error
		switch op.Kind {
		case tsmodel.Append, tsmodel.Batch, tsmodel.Refs:
			entries, want := make([]BatchEntry, len(op.Entries)), 0
			for j, e := range op.Entries {
				entries[j] = BatchEntry{ID: e.ID, Kind: metric.Gauge, Unit: metric.UnitWatt, T: e.T, V: e.V}
				if m.Append(e.ID, e.T, e.V) {
					want++
				}
			}
			got := appendVia(s, op.Kind, entries, refs)
			if n, _ := twin.AppendBatch(entries); got != want || n != want {
				err = fmt.Errorf("store accepted %d, twin %d, model %d", got, n, want)
			}
		case tsmodel.Retain:
			n := s.Retain(op.Cutoff)
			twin.Retain(op.Cutoff)
			err = m.Retain(op.Cutoff, n, func(key string) int {
				id, _ := s.IDForKey(key)
				all, _ := collect(s, id, math.MinInt64, math.MaxInt64)
				return len(all)
			})
		case tsmodel.RetainTier:
			s.RetainTier(op.Step, op.Cutoff)
			twin.RetainTier(op.Step, op.Cutoff)
		default: // Restore, Crash
			dump := s.Dump()
			if !reflect.DeepEqual(dump, twin.Dump()) {
				err = errors.New("dump differs from the AppendBatch twin's")
			} else if s, err = RestoreStore(g.ChunkSize, dump, opts...); err == nil {
				clear(refs)
			}
		}
		if err == nil {
			err = checkModel(s, m, g.Windows())
		}
		if err != nil {
			t.Fatalf("op %d %+v: %v", i, op, err)
		}
	}
}

// appendVia sends entries down one ingest path and returns how many the
// store accepted.
func appendVia(s *Store, kind tsmodel.Kind, entries []BatchEntry, refs map[string]SeriesRef) int {
	n := 0
	switch kind {
	case tsmodel.Append:
		for _, e := range entries {
			if s.Append(e.ID, e.Kind, e.Unit, e.T, e.V) == nil {
				n++
			}
		}
	case tsmodel.Batch:
		n, _ = s.AppendBatch(entries)
	default:
		rents := make([]RefEntry, len(entries))
		for i, e := range entries {
			if _, ok := refs[e.ID.Key()]; !ok {
				refs[e.ID.Key()], _ = s.Resolve(e.ID, e.Kind, e.Unit)
			}
			rents[i] = RefEntry{Ref: refs[e.ID.Key()], T: e.T, V: e.V}
		}
		n, _ = s.AppendRefs(rents)
	}
	return n
}

// checkModel compares the store with the model: the registry, NumSamples,
// each series' samples through Each, cursor and SeriesValues, Latest,
// every function on the raw window through a raw plan (ReducePlanned on the
// store's raw chunks restored without its tiers), and ReducePlanned,
// AggregatePlanned, ReducePartial and a sorted-key partial merge on the
// planned window. Answers compare in print: %v tells every two float64s
// apart but NaN payloads (the generator makes none), and the one error
// either side gives here, p95 of an empty window, is the same stats error.
func checkModel(s *Store, m *tsmodel.Model, w tsmodel.Windows) error {
	var keys []string
	for _, id := range s.Select("", nil) {
		keys = append(keys, id.Key())
	}
	// Select answers in key order; the model keeps registration order.
	want := append([]string(nil), m.Keys()...)
	sort.Strings(want)
	if !reflect.DeepEqual(keys, want) || s.NumSamples() != m.NumSamples() {
		return fmt.Errorf("store holds %v, %d samples; model %v, %d", keys, s.NumSamples(), want, m.NumSamples())
	}
	var bad error
	expect := func(what, got, want string) {
		if bad == nil && got != want {
			bad = fmt.Errorf("%s on %+v: store %s, model %s", what, w, got, want)
		}
	}
	raw, err := untiered(s)
	if err != nil {
		return fmt.Errorf("untiered copy: %w", err)
	}
	var merged Partial
	for _, key := range keys {
		id, _ := s.IDForKey(key)
		all, err := collect(s, id, math.MinInt64, math.MaxInt64)
		expect(key+" samples", fmt.Sprint(all, err), fmt.Sprint(m.Samples(key, math.MinInt64, math.MaxInt64), nil))
		expect(key+" Latest", fmt.Sprint(s.Latest(id)), fmt.Sprint(m.Latest(key)))

		want := m.Samples(key, w.From, w.To)
		cur, _ := s.cursor(id, w.From, w.To)
		var window []metric.Sample
		var vals []float64
		for cur.Next() {
			window, vals = append(window, cur.At()), append(vals, cur.At().V)
		}
		expect(key+" cursor", fmt.Sprint(window, cur.Err(), cur.est >= len(want)), fmt.Sprint(want, nil, true))
		cur.Close()
		expect(key+" SeriesValues", fmt.Sprint(s.SeriesValues(id, w.From, w.To, 0)), fmt.Sprint(vals, nil))

		p, _, err := s.ReducePartial(id, w.PlanFrom, w.PlanTo)
		expect(key+" ReducePartial", fmt.Sprint(err), "<nil>")
		merged.Merge(p)
		for _, fn := range modelFns {
			what, f := key+" "+string(fn), string(fn)
			planned := fmt.Sprint(m.Reduce(key, w.PlanFrom, w.PlanTo, f))
			expect(what+" raw plan", fmt.Sprint(raw.ReducePlanned(id, w.From, w.To, fn)), fmt.Sprint(m.Reduce(key, w.From, w.To, f)))
			expect(what+" ReducePlanned", fmt.Sprint(s.ReducePlanned(id, w.PlanFrom, w.PlanTo, fn)), planned)
			expect(what+" AggregatePlanned", fmt.Sprint(s.AggregatePlanned(id, w.PlanFrom, w.PlanTo, w.Step, fn)),
				fmt.Sprint(m.Aggregate(key, w.PlanFrom, w.PlanTo, w.Step, f)))
			if MergeableAgg(fn) {
				expect(what+" ReducePartial", fmt.Sprint(p.Value(fn), p.Count, nil), planned)
			}
		}
	}
	expect("raw plans", fmt.Sprint(raw.RollupStats().RawPlans), fmt.Sprint(len(keys)*len(modelFns)))
	for _, fn := range modelFns {
		if MergeableAgg(fn) {
			expect("merged "+string(fn), fmt.Sprint(merged.Value(fn), merged.Count, nil),
				fmt.Sprint(m.ReduceMerged(keys, w.PlanFrom, w.PlanTo, string(fn))))
		}
	}
	return bad
}
