package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/queryfront"
	"repro/internal/timeseries"
	"repro/internal/tsmodel"
)

// startTieredCluster is a three-node RF=1 cluster whose stores carry a 1m
// rollup tier, loaded with 2h of 10s-cadence samples on enough series that
// every node owns one. It returns the nodes' stores, one key per owner and
// the reference model fed the same samples.
func startTieredCluster(t *testing.T) (nodes map[string]*testNode, stores map[string]*timeseries.Store, keyOf map[string]string, model *tsmodel.Model) {
	t.Helper()
	stores = make(map[string]*timeseries.Store)
	nodes, _ = startCluster(t, []string{"n1", "n2", "n3"}, 1, false, func(cfg *Config) {
		st := timeseries.NewStore(64, timeseries.WithRollups(timeseries.TierStep1m))
		cfg.Store, cfg.Local = st, st
		stores[cfg.Self] = st
	})
	var entries []timeseries.BatchEntry
	ring := nodes["n1"].router.Ring()
	keyOf = make(map[string]string)
	model = tsmodel.New(true)
	for s := 0; s < 12; s++ {
		id := metric.ID{Name: fmt.Sprintf("tiered.metric.%02d", s)}
		keyOf[ring.Primary(id.Key())] = id.Key()
		for i := int64(0); i < 2*360+10; i++ {
			entries = append(entries, timeseries.BatchEntry{ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, T: i * 10_000, V: float64((i + int64(s)) % 50)})
			model.Append(id, i*10_000, float64((i+int64(s))%50))
		}
	}
	if len(keyOf) != 3 {
		t.Fatalf("owners with a series: %v; dataset too small", keyOf)
	}
	if n, err := nodes["n1"].router.AppendBatch(entries); err != nil || n != len(entries) {
		t.Fatalf("AppendBatch: %d of %d, %v", n, len(entries), err)
	}
	settle(nodes)
	return nodes, stores, keyOf, model
}

// plans is how many planner decisions a store has counted.
func plans(st *timeseries.Store) uint64 {
	rs := st.RollupStats()
	n := rs.RawPlans
	for _, t := range rs.Tiers {
		n += t.Picks
	}
	return n
}

// TestRouterPlansOncePerQuery: a query the coordinator owns is one planner
// decision on its store, and a query another node owns is one decision on the
// owner's store and none here — with the owner's tier reported either way (a
// local owner used to be planned twice, a remote one always reported tier 0).
func TestRouterPlansOncePerQuery(t *testing.T) {
	nodes, stores, keyOf, model := startTieredCluster(t)
	r := nodes["n1"].router
	const to = 2 * timeseries.TierStep1h

	// Through the front door, the series n1 owns.
	qf := queryfront.New(r, 0, time.Minute, 1000, 1000) // cache off
	series := url.QueryEscape(keyOf["n1"])
	for _, tc := range []struct {
		target string
		tier   float64
	}{
		{"/query?series=" + series + "&from=0&to=7200000&fn=mean", timeseries.TierStep1m},
		{"/query?series=" + series + "&from=0&to=7200000&fn=p95", 0},
		{"/query_range?series=" + series + "&from=0&to=7200000&step=300000&fn=mean", timeseries.TierStep1m},
	} {
		before := plans(stores["n1"])
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", tc.target, nil)
		if req.URL.Path == "/query" {
			qf.HandleQuery(rec, req)
		} else {
			qf.HandleQueryRange(rec, req)
		}
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", tc.target, rec.Code, rec.Body.String())
		}
		if got := plans(stores["n1"]) - before; got != 1 {
			t.Fatalf("%s: %d planner decisions on the owner, want 1", tc.target, got)
		}
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body["tier_step"] != tc.tier {
			t.Fatalf("%s: tier_step %v, want %v", tc.target, body["tier_step"], tc.tier)
		}
	}

	// A series n2 owns, asked of n1: the tier crosses the wire.
	key := keyOf["n2"]
	here, there := plans(stores["n1"]), plans(stores["n2"])
	v, n, tier, found, partial, err := r.Reduce(key, 0, to, timeseries.AggSum)
	if err != nil || !found || partial {
		t.Fatalf("Reduce: found=%v partial=%v err=%v", found, partial, err)
	}
	wantV, wantN, _ := model.Reduce(key, 0, to, string(timeseries.AggSum))
	if v != wantV || n != wantN || tier != timeseries.TierStep1m {
		t.Fatalf("Reduce = (%v, %d, tier %d), want (%v, %d, tier %d)", v, n, tier, wantV, wantN, int64(timeseries.TierStep1m))
	}
	pts, tier, found, partial, err := r.AggregateRange(key, 0, to, 5*timeseries.TierStep1m, timeseries.AggMax)
	if err != nil || !found || partial || len(pts) != 24 || tier != timeseries.TierStep1m {
		t.Fatalf("AggregateRange: %d points, tier %d, found=%v partial=%v err=%v", len(pts), tier, found, partial, err)
	}
	if _, _, tier, _, _, err = r.Reduce(key, 1, to, timeseries.AggSum); err != nil || tier != 0 {
		t.Fatalf("unaligned Reduce: tier %d, %v; want the owner's raw plan", tier, err)
	}
	if got := plans(stores["n1"]) - here; got != 0 {
		t.Fatalf("coordinator planned %d times for a series it does not own", got)
	}
	if got := plans(stores["n2"]) - there; got != 3 {
		t.Fatalf("owner planned %d times for 3 queries", got)
	}
}

// TestRouterRefusesWrappedWindow: a bucketed window wider than int64 is an
// error from the owner — its own store's, or the Err response of a peer —
// never buckets.
func TestRouterRefusesWrappedWindow(t *testing.T) {
	nodes, _, keyOf, _ := startTieredCluster(t)
	r := nodes["n1"].router
	for _, owner := range []string{"n1", "n2"} {
		for _, fn := range []timeseries.AggFunc{timeseries.AggMean, timeseries.AggP95} {
			pts, _, _, _, err := r.AggregateRange(keyOf[owner], math.MinInt64, math.MaxInt64, 60_000, fn)
			if err == nil {
				t.Fatalf("owner %s, %s: %d buckets over a wrapped window", owner, fn, len(pts))
			}
		}
		// Whole-window reductions do no bucket arithmetic.
		if _, n, _, found, _, err := r.Reduce(keyOf[owner], math.MinInt64, math.MaxInt64, timeseries.AggCount); err != nil || !found || n != 730 {
			t.Fatalf("owner %s: Reduce over the widest window: count %d found=%v err=%v", owner, n, found, err)
		}
	}
}
