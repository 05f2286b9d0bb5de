package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/bench/gen"
	"repro/bench/report"
	"repro/internal/queryfront"
	"repro/internal/quota"
	"repro/internal/timeseries"
)

// readQueries is how many scheduled queries each read probe runs.
const readQueries = 1200

// timedBackend interposes on the queryfront.Backend boundary: it remembers
// how long the last call into the store took.
type timedBackend struct {
	inner queryfront.Backend
	last  time.Duration
}

func (b *timedBackend) Reduce(key string, from, to int64, fn timeseries.AggFunc) (float64, int, int64, bool, bool, error) {
	t0 := time.Now()
	defer func() { b.last = time.Since(t0) }()
	return b.inner.Reduce(key, from, to, fn)
}

func (b *timedBackend) AggregateRange(key string, from, to, step int64, fn timeseries.AggFunc) ([]timeseries.AggPoint, int64, bool, bool, error) {
	t0 := time.Now()
	defer func() { b.last = time.Since(t0) }()
	return b.inner.AggregateRange(key, from, to, step, fn)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// readProbes runs the workload's query schedule against the archive three
// ways: straight into the store's planned read functions, through the
// front door's handlers with the store call timed apart, and through a
// loopback HTTP server with the handler timed apart.
func (l *layers) readProbes(keys []string, clk gen.Clock, ticks int) error {
	st := l.archive
	queries := gen.NewQueries(l.seed, clk, readQueries, len(keys), ticks, gen.ReaderMix)

	var direct [gen.NumClasses][]float64
	for _, q := range queries {
		id, ok := st.IDForKey(keys[q.Series])
		if !ok {
			return fmt.Errorf("series %s missing from the archive", keys[q.Series])
		}
		var err error
		t0 := time.Now()
		switch q.Class {
		case gen.Point:
			_, _, err = st.ReducePlanned(id, q.From, q.To, timeseries.AggFunc(q.Fn))
		default:
			_, err = st.AggregatePlanned(id, q.From, q.To, q.Step, timeseries.AggFunc(q.Fn))
		}
		direct[q.Class] = append(direct[q.Class], us(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	l.setN("timeseries.reduce_us_p50", report.Median(direct[gen.Point]), "us", len(direct[gen.Point]))
	l.setN("timeseries.aggregate_planned_us_p50", report.Median(direct[gen.Range]), "us", len(direct[gen.Range]))
	l.setN("timeseries.aggregate_raw_us_p50", report.Median(direct[gen.Raw]), "us", len(direct[gen.Raw]))

	// The front door as odad mounts it: default cache, quotas high enough
	// that nothing is refused.
	backend := &timedBackend{inner: queryfront.ForStore(st)}
	front := queryfront.New(backend, 1024, 10*time.Second, 1e6, 1e6)
	var handler []float64
	for _, q := range queries {
		req := httptest.NewRequest(http.MethodGet, q.Path(keys[q.Series]), nil)
		rec := httptest.NewRecorder()
		backend.last = 0
		t0 := time.Now()
		if q.Step > 0 {
			front.HandleQueryRange(rec, req)
		} else {
			front.HandleQuery(rec, req)
		}
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			l.fail("front door answered %d for %s", rec.Code, req.URL)
		}
		handler = append(handler, us(d-backend.last))
	}
	cs, qs := front.CacheStats(), front.QuotaStats()
	l.setN("queryfront.handler_us_p50", report.Median(handler), "us", len(handler))
	l.set("resultcache.hit_ratio", float64(cs.Hits)/float64(max(1, cs.Hits+cs.Misses)), "ratio")
	l.set("resultcache.evictions", float64(cs.Evictions), "count")
	l.set("quota.rejected", float64(qs.Rejected), "count")

	// The same schedule through a loopback server; a fresh front door so
	// the cache starts as cold as it did above.
	front = queryfront.New(queryfront.ForStore(st), 1024, 10*time.Second, 1e6, 1e6)
	var inHandler atomic.Int64 // ns the last request spent in its handler
	mux := http.NewServeMux()
	timed := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			h(w, r)
			inHandler.Store(int64(time.Since(t0)))
		}
	}
	mux.HandleFunc("/query", timed(front.HandleQuery))
	mux.HandleFunc("/query_range", timed(front.HandleQueryRange))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := srv.Client()
	var overHTTP []float64
	for _, q := range queries {
		t0 := time.Now()
		resp, err := client.Get(srv.URL + q.Path(keys[q.Series]))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		if err != nil || resp.StatusCode != http.StatusOK {
			l.fail("loopback front door: %v %v", resp.Status, err)
		}
		// Requests are sequential and a response ends only after its
		// handler returned, so this is this request's handler time.
		overHTTP = append(overHTTP, us(d-time.Duration(inHandler.Load())))
	}
	l.setN("queryfront.http_us_p50", report.Median(overHTTP), "us", len(overHTTP))

	rs := st.RollupStats()
	var picks uint64
	for _, t := range rs.Tiers {
		picks += t.Picks
	}
	gets, news := st.CursorPoolStats()
	l.set("timeseries.tier_pick_ratio", float64(picks)/float64(max(1, picks+rs.RawPlans)), "ratio")
	l.set("timeseries.cursor_pool_reuse_ratio", float64(gets-news)/float64(max(1, gets)), "ratio")
	l.set("timeseries.stale_refs", float64(st.RefStats().StaleRefs), "count")

	// The limiter alone.
	lim := quota.New(1e6, 1e6)
	const allows = 200_000
	t0 := time.Now()
	for i := 0; i < allows; i++ {
		lim.Allow("anonymous")
	}
	l.set("quota.allow_ns", float64(time.Since(t0).Nanoseconds())/allows, "ns")
	return nil
}
