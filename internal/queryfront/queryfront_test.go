package queryfront

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

func queryTestStore(t *testing.T) (*timeseries.Store, metric.ID) {
	t.Helper()
	store := timeseries.NewStore(64, timeseries.WithRollups(timeseries.TierStep1m, timeseries.TierStep1h))
	id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n0")}
	for i := int64(0); i < 2*360+10; i++ { // ~2h at 10s cadence
		if err := store.Append(id, metric.Gauge, metric.UnitWatt, i*10_000, float64(i%50)); err != nil {
			t.Fatal(err)
		}
	}
	return store, id
}

func TestQueryEndpoint(t *testing.T) {
	store, id := queryTestStore(t)
	qf := New(ForStore(store), 64, time.Minute, 1000, 1000)

	get := func(target string, tenant string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", target, nil)
		if tenant != "" {
			req.Header.Set("X-ODA-Tenant", tenant)
		}
		qf.HandleQuery(rec, req)
		return rec
	}
	target := "/query?series=" + url.QueryEscape(id.Key()) + "&from=0&to=7200000&fn=sum"
	rec := get(target, "")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	wantV, wantN, err := store.Reduce(id, 0, 7_200_000, timeseries.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if got["value"] != wantV || got["count"] != float64(wantN) {
		t.Fatalf("value/count = %v/%v, want %v/%d", got["value"], got["count"], wantV, wantN)
	}
	if got["tier_step"] == float64(0) {
		t.Fatal("planner did not pick a tier for an aligned 2h sum")
	}
	if rec.Header().Get("X-ODA-Cache") != "miss" {
		t.Fatal("first request should miss the result cache")
	}
	// Identical query: served from the result cache, byte-identical.
	rec2 := get(target, "")
	if rec2.Header().Get("X-ODA-Cache") != "hit" {
		t.Fatal("second request should hit the result cache")
	}
	if rec2.Body.String() != rec.Body.String() {
		t.Fatal("cached body diverged")
	}

	for _, tc := range []struct {
		target string
		code   int
	}{
		{"/query?series=nope&from=0&to=10", 404},
		{"/query?from=0&to=10", 400},
		{"/query?series=x&from=5&to=5", 400},
		{"/query?series=x&from=abc&to=10", 400},
		{"/query?series=x&from=0&to=10&fn=median", 400},
		{"/query?series=x&from=0&to=10&step=60", 400},
	} {
		if rec := get(tc.target, ""); rec.Code != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.target, rec.Code, tc.code)
		}
	}
}

func TestQueryRangeEndpoint(t *testing.T) {
	store, id := queryTestStore(t)
	qf := New(ForStore(store), 64, time.Minute, 1000, 1000)

	rec := httptest.NewRecorder()
	target := "/query_range?series=" + url.QueryEscape(id.Key()) + "&from=0&to=7200000&step=60000&fn=max"
	qf.HandleQueryRange(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got struct {
		TierStep int64 `json:"tier_step"`
		Points   []struct {
			Start int64   `json:"start"`
			Value float64 `json:"value"`
		} `json:"points"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want, err := store.Aggregate(id, 0, 7_200_000, 60_000, timeseries.AggMax)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(want) {
		t.Fatalf("%d points, want %d", len(got.Points), len(want))
	}
	for i, p := range got.Points {
		if p.Start != want[i].Start || p.Value != want[i].Value {
			t.Fatalf("point %d = %+v, want %+v", i, p, want[i])
		}
	}
	if got.TierStep != timeseries.TierStep1m {
		t.Fatalf("tier_step = %d, want %d", got.TierStep, int64(timeseries.TierStep1m))
	}

	// Missing/invalid step is the range endpoint's own 400.
	rec = httptest.NewRecorder()
	qf.HandleQueryRange(rec, httptest.NewRequest("GET", "/query_range?series=x&from=0&to=10", nil))
	if rec.Code != 400 {
		t.Fatalf("missing step: status %d", rec.Code)
	}

	// A window wider than int64 wraps the bucket arithmetic (it used to
	// answer 200 with buckets 120 s apart on a 60 s step): refused, on the
	// fold (mean) and on the distribution path (p95) alike.
	for _, fn := range []string{"mean", "p95"} {
		rec = httptest.NewRecorder()
		target = "/query_range?series=" + url.QueryEscape(id.Key()) +
			"&from=-9223372036854775808&to=9223372036854775807&step=60000&fn=" + fn
		qf.HandleQueryRange(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != 400 {
			t.Fatalf("wide window, fn=%s: status %d, want 400: %s", fn, rec.Code, rec.Body.String())
		}
	}
}

// plans is how many planner decisions the store has counted.
func plans(st *timeseries.Store) uint64 {
	rs := st.RollupStats()
	n := rs.RawPlans
	for _, t := range rs.Tiers {
		n += t.Picks
	}
	return n
}

// TestOnePlanPerQuery: every uncached request is one planner decision, and
// the tier it reports is that decision (the front door used to plan once to
// report and once more to execute).
func TestOnePlanPerQuery(t *testing.T) {
	store, id := queryTestStore(t)
	qf := New(ForStore(store), 0, time.Minute, 1000, 1000) // cache off
	series := url.QueryEscape(id.Key())
	for _, tc := range []struct {
		target string
		tier   float64
	}{
		{"/query?series=" + series + "&from=0&to=7200000&fn=mean", timeseries.TierStep1h},
		{"/query?series=" + series + "&from=0&to=7200000&fn=p95", 0},
		{"/query_range?series=" + series + "&from=0&to=7200000&step=60000&fn=mean", timeseries.TierStep1m},
		{"/query_range?series=" + series + "&from=0&to=7200000&step=60000&fn=p95", 0},
		{"/query_range?series=" + series + "&from=0&to=7200000&step=90000&fn=sum", 0},
	} {
		before := plans(store)
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
		if got := plans(store) - before; got != 1 {
			t.Fatalf("%s: %d planner decisions, want 1", tc.target, got)
		}
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body["tier_step"] != tc.tier {
			t.Fatalf("%s: tier_step %v, want %v", tc.target, body["tier_step"], tc.tier)
		}
	}
}

func TestQueryQuota(t *testing.T) {
	store, id := queryTestStore(t)
	qf := New(ForStore(store), 0, time.Minute, 1, 2) // cache off: every request hits the quota and the store

	code := func(tenant string) int {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/query?series="+url.QueryEscape(id.Key())+"&from=0&to=60000", nil)
		req.Header.Set("X-ODA-Tenant", tenant)
		qf.HandleQuery(rec, req)
		return rec.Code
	}
	if code("dash") != 200 || code("dash") != 200 {
		t.Fatal("burst requests rejected")
	}
	if code("dash") != 429 {
		t.Fatal("over-quota request not rejected with 429")
	}
	if code("other") != 200 {
		t.Fatal("quota not per-tenant")
	}
}

// TestWithClock pins the front door to a virtual clock and checks the two
// time-dependent behaviors deterministic harnesses rely on: quota buckets
// refill exactly with virtual time, and cache entries expire exactly at TTL.
func TestWithClock(t *testing.T) {
	store, id := queryTestStore(t)
	now := time.Unix(0, 0)
	qf := New(ForStore(store), 64, 10*time.Second, 1, 1, WithClock(func() time.Time { return now }))

	get := func() (int, string) {
		rec := httptest.NewRecorder()
		qf.HandleQuery(rec, httptest.NewRequest("GET", "/query?series="+url.QueryEscape(id.Key())+"&from=0&to=60000", nil))
		return rec.Code, rec.Header().Get("X-ODA-Cache")
	}
	if code, cache := get(); code != 200 || cache != "miss" {
		t.Fatalf("first: %d/%s", code, cache)
	}
	// Same instant: the single token is spent, the bucket has not refilled.
	if code, _ := get(); code != 429 {
		t.Fatal("frozen clock refilled the bucket")
	}
	// One virtual second refills one token; the entry is still fresh.
	now = now.Add(time.Second)
	if code, cache := get(); code != 200 || cache != "hit" {
		t.Fatalf("after 1s: %d/%s", code, cache)
	}
	// Past the TTL the entry has expired: quota admits, cache misses.
	now = now.Add(time.Minute)
	if code, cache := get(); code != 200 || cache != "miss" {
		t.Fatalf("after TTL: %d/%s", code, cache)
	}
}

func TestParseRollupSteps(t *testing.T) {
	steps, err := ParseRollupSteps(" 1m, 1h ")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || steps[0] != timeseries.TierStep1m || steps[1] != timeseries.TierStep1h {
		t.Fatalf("steps = %v", steps)
	}
	if s, err := ParseRollupSteps(""); err != nil || s != nil {
		t.Fatalf("empty: %v, %v", s, err)
	}
	for _, bad := range []string{"1x", "500ms", "1m,,1h"} {
		if _, err := ParseRollupSteps(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}
