// Package queryfront is the HTTP query front door of the ODA stack:
// planned queries against a TSDB store behind an LRU result cache
// (TTL-bounded staleness) and per-tenant token-bucket quotas. odad mounts
// it on /query and /query_range; the chaos harness drives the very same
// handlers to check quota/result-cache consistency after a fault campaign.
//
// Tenants identify themselves with the X-ODA-Tenant header; missing means
// the shared "anonymous" tenant. Cache hits are marked with the
// X-ODA-Cache response header and are byte-identical to the response that
// populated the entry.
package queryfront

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/quota"
	"repro/internal/resultcache"
	"repro/internal/timeseries"
)

// Backend answers the two query shapes the front door serves. The plain
// single-store backend (ForStore) executes planned queries directly; a
// cluster router implements the same contract by routing each series to
// its owning peer.
//
// found=false means the series is unknown (a 404, not an error). A non-nil
// error means the backend could not answer (a 503 — never an empty 200).
// partial=true means the answer may be incomplete or stale (e.g. served by
// a replica while the owner is down); it is surfaced to the client via the
// X-ODA-Partial header and is never cached. tierStep is the rollup tier of
// the plan that produced the answer, wherever it ran; 0 is a raw scan.
type Backend interface {
	Reduce(key string, from, to int64, fn timeseries.AggFunc) (value float64, count int, tierStep int64, found, partial bool, err error)
	AggregateRange(key string, from, to, step int64, fn timeseries.AggFunc) (pts []timeseries.AggPoint, tierStep int64, found, partial bool, err error)
}

// PeerBackend is an optional Backend extension that attributes degraded
// answers to the peers that caused them. When the backend implements it, the
// X-ODA-Partial header carries the sorted, deduplicated peer names (each
// exactly once) instead of the bare "true" — so a dashboard can say WHICH
// node's data is stale, not just that something is. The cluster router
// implements it; the single-store backend has no peers and does not.
type PeerBackend interface {
	Backend
	ReducePeers(key string, from, to int64, fn timeseries.AggFunc) (value float64, count int, tierStep int64, found bool, peers []string, err error)
	AggregateRangePeers(key string, from, to, step int64, fn timeseries.AggFunc) (pts []timeseries.AggPoint, tierStep int64, found bool, peers []string, err error)
}

// storeBackend serves queries from one local store: the single-node
// deployment and the reference behavior the cluster path must match. For a
// mergeable fn it finishes the store's Partials itself, so the tier step it
// reports is the plan the answer came from; std and p95 need the
// distribution, which only a raw scan (tier 0) has.
type storeBackend struct{ store *timeseries.Store }

// ForStore adapts a plain store into a query Backend.
func ForStore(st *timeseries.Store) Backend { return storeBackend{store: st} }

func (sb storeBackend) Reduce(key string, from, to int64, fn timeseries.AggFunc) (float64, int, int64, bool, bool, error) {
	id, ok := sb.store.IDForKey(key)
	if !ok {
		return 0, 0, 0, false, false, nil
	}
	if !timeseries.MergeableAgg(fn) {
		v, n, err := sb.store.ReducePlanned(id, from, to, fn)
		return v, n, 0, err == nil, false, err
	}
	agg, plan, err := sb.store.ReducePartial(id, from, to)
	if err != nil {
		return 0, 0, 0, false, false, err
	}
	return agg.Value(fn), int(agg.Count), plan.TierStep, true, false, nil
}

func (sb storeBackend) AggregateRange(key string, from, to, step int64, fn timeseries.AggFunc) ([]timeseries.AggPoint, int64, bool, bool, error) {
	id, ok := sb.store.IDForKey(key)
	if !ok {
		return nil, 0, false, false, nil
	}
	if !timeseries.MergeableAgg(fn) {
		pts, err := sb.store.AggregatePlanned(id, from, to, step, fn)
		return pts, 0, err == nil, false, err
	}
	pp, plan, err := sb.store.AggregatePartials(id, from, to, step)
	if err != nil {
		return nil, 0, false, false, err
	}
	return timeseries.FinishPartials(pp, fn), plan.TierStep, true, false, nil
}

// Front serves /query and /query_range over a backend.
type Front struct {
	backend Backend
	cache   *resultcache.Cache
	quotas  *quota.Limiter
}

// Option tunes a Front.
type Option func(*options)

type options struct {
	clock func() time.Time
}

// WithClock injects the time source the cache TTL and quota refill use.
// Deterministic harnesses (the chaos campaign's consistency checker) pin
// it to a virtual clock; production uses time.Now.
func WithClock(now func() time.Time) Option {
	return func(o *options) { o.clock = now }
}

// New builds a front door over a backend (wrap a bare store with ForStore):
// cacheEntries/cacheTTL size the result cache (0 entries disables caching),
// rate/burst parameterize the per-tenant token buckets.
func New(backend Backend, cacheEntries int, cacheTTL time.Duration, rate, burst float64, opts ...Option) *Front {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var cacheOpts []resultcache.Option
	var quotaOpts []quota.Option
	if o.clock != nil {
		cacheOpts = append(cacheOpts, resultcache.WithClock(o.clock))
		quotaOpts = append(quotaOpts, quota.WithClock(o.clock))
	}
	return &Front{
		backend: backend,
		cache:   resultcache.New(cacheEntries, cacheTTL, cacheOpts...),
		quotas:  quota.New(rate, burst, quotaOpts...),
	}
}

// CacheStats exposes the result cache counters for /stats.
func (qf *Front) CacheStats() resultcache.Stats { return qf.cache.Stats() }

// QuotaStats exposes the per-tenant quota counters for /stats.
func (qf *Front) QuotaStats() quota.Stats { return qf.quotas.Stats() }

// ParseRollupSteps parses a rollup tier flag: comma-separated Go durations
// ("1m,1h") to tier steps in milliseconds. Empty means no rollups.
func ParseRollupSteps(s string) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var steps []int64
	for _, part := range strings.Split(s, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if d < time.Second {
			return nil, fmt.Errorf("tier resolution %s below 1s", d)
		}
		steps = append(steps, d.Milliseconds())
	}
	return steps, nil
}

// queryParams is one parsed /query or /query_range request.
type queryParams struct {
	series string
	from   int64
	to     int64
	step   int64 // 0 for /query (single whole-window reduction)
	fn     timeseries.AggFunc
}

// parseAggFunc validates the fn parameter ("" defaults to mean).
func parseAggFunc(s string) (timeseries.AggFunc, error) {
	if s == "" {
		return timeseries.AggMean, nil
	}
	switch fn := timeseries.AggFunc(s); fn {
	case timeseries.AggMean, timeseries.AggSum, timeseries.AggMin, timeseries.AggMax,
		timeseries.AggCount, timeseries.AggRate, timeseries.AggStd, timeseries.AggP95:
		return fn, nil
	}
	return "", fmt.Errorf("unknown fn %q", s)
}

// parseQueryParams validates the common query parameters. needStep selects
// the /query_range contract (positive step required); /query rejects a step
// parameter outright.
func parseQueryParams(vals url.Values, needStep bool) (queryParams, error) {
	var p queryParams
	p.series = vals.Get("series")
	if p.series == "" {
		return p, fmt.Errorf("missing series parameter")
	}
	var err error
	if p.from, err = strconv.ParseInt(vals.Get("from"), 10, 64); err != nil {
		return p, fmt.Errorf("bad from: %v", err)
	}
	if p.to, err = strconv.ParseInt(vals.Get("to"), 10, 64); err != nil {
		return p, fmt.Errorf("bad to: %v", err)
	}
	if p.to <= p.from {
		return p, fmt.Errorf("empty range: to %d <= from %d", p.to, p.from)
	}
	if needStep {
		if p.step, err = strconv.ParseInt(vals.Get("step"), 10, 64); err != nil {
			return p, fmt.Errorf("bad step: %v", err)
		}
		if p.step <= 0 {
			return p, fmt.Errorf("step must be positive, got %d", p.step)
		}
		if p.to-p.from < 0 {
			// Bucket starts are from + (T-from)/step*step: past this width
			// the arithmetic wraps and the store refuses the window.
			return p, fmt.Errorf("range [%d, %d) is wider than int64", p.from, p.to)
		}
	} else if vals.Get("step") != "" {
		return p, fmt.Errorf("step is only valid on /query_range")
	}
	if p.fn, err = parseAggFunc(vals.Get("fn")); err != nil {
		return p, err
	}
	return p, nil
}

// admit applies the per-tenant quota, answering 429 when the tenant's
// bucket is empty.
func (qf *Front) admit(w http.ResponseWriter, r *http.Request) bool {
	tenant := r.Header.Get("X-ODA-Tenant")
	if tenant == "" {
		tenant = "anonymous"
	}
	if !qf.quotas.Allow(tenant) {
		http.Error(w, "query quota exceeded", http.StatusTooManyRequests)
		return false
	}
	return true
}

// serveCached writes the cached response for key if present.
func (qf *Front) serveCached(w http.ResponseWriter, key string) bool {
	body, ok := qf.cache.Get(key)
	if !ok {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-ODA-Cache", "hit")
	_, _ = w.Write(body)
	return true
}

// partialHeader renders the X-ODA-Partial value: the degraded peers, sorted
// and deduplicated so each appears exactly once, or "true" when the backend
// cannot name them.
func partialHeader(peers []string) string {
	if len(peers) == 0 {
		return "true"
	}
	uniq := append([]string(nil), peers...)
	sort.Strings(uniq)
	j := 0
	for i, p := range uniq {
		if i == 0 || p != uniq[j-1] {
			uniq[j] = p
			j++
		}
	}
	return strings.Join(uniq[:j], ",")
}

func (qf *Front) finish(w http.ResponseWriter, key string, partial bool, peers []string, payload any) {
	body, err := json.Marshal(payload)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	body = append(body, '\n')
	if partial {
		// A degraded answer (replica-served, possibly lagging) is flagged
		// and never cached: the next request should retry the owner.
		w.Header().Set("X-ODA-Partial", partialHeader(peers))
	} else {
		qf.cache.Put(key, body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-ODA-Cache", "miss")
	_, _ = w.Write(body)
}

// HandleQuery serves GET /query: a single planned reduction over
// [from, to). The tier the planner picked is reported for observability.
func (qf *Front) HandleQuery(w http.ResponseWriter, r *http.Request) {
	if !qf.admit(w, r) {
		return
	}
	p, err := parseQueryParams(r.URL.Query(), false)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := "q|" + p.series + "|" + strconv.FormatInt(p.from, 10) + "|" + strconv.FormatInt(p.to, 10) + "|" + string(p.fn)
	if qf.serveCached(w, key) {
		return
	}
	var (
		val      float64
		n        int
		tierStep int64
		found    bool
		partial  bool
		peers    []string
	)
	if pb, ok := qf.backend.(PeerBackend); ok {
		val, n, tierStep, found, peers, err = pb.ReducePeers(p.series, p.from, p.to, p.fn)
		partial = len(peers) > 0
	} else {
		val, n, tierStep, found, partial, err = qf.backend.Reduce(p.series, p.from, p.to, p.fn)
	}
	if err != nil {
		// The backend could not answer (store failure, no peer reachable):
		// an explicit 503, never an empty-but-200 body a dashboard would
		// happily render as "no data".
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if !found {
		http.Error(w, "unknown series "+p.series, http.StatusNotFound)
		return
	}
	qf.finish(w, key, partial, peers, map[string]any{
		"series":    p.series,
		"from":      p.from,
		"to":        p.to,
		"fn":        p.fn,
		"value":     val,
		"count":     n,
		"tier_step": tierStep,
	})
}

// HandleQueryRange serves GET /query_range: planned step-bucketed
// aggregation over [from, to).
func (qf *Front) HandleQueryRange(w http.ResponseWriter, r *http.Request) {
	if !qf.admit(w, r) {
		return
	}
	p, err := parseQueryParams(r.URL.Query(), true)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := "qr|" + p.series + "|" + strconv.FormatInt(p.from, 10) + "|" + strconv.FormatInt(p.to, 10) + "|" +
		strconv.FormatInt(p.step, 10) + "|" + string(p.fn)
	if qf.serveCached(w, key) {
		return
	}
	var (
		pts      []timeseries.AggPoint
		tierStep int64
		found    bool
		partial  bool
		peers    []string
	)
	if pb, ok := qf.backend.(PeerBackend); ok {
		pts, tierStep, found, peers, err = pb.AggregateRangePeers(p.series, p.from, p.to, p.step, p.fn)
		partial = len(peers) > 0
	} else {
		pts, tierStep, found, partial, err = qf.backend.AggregateRange(p.series, p.from, p.to, p.step, p.fn)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if !found {
		http.Error(w, "unknown series "+p.series, http.StatusNotFound)
		return
	}
	type point struct {
		Start int64   `json:"start"`
		Value float64 `json:"value"`
	}
	points := make([]point, len(pts))
	for i, ap := range pts {
		points[i] = point{Start: ap.Start, Value: ap.Value}
	}
	qf.finish(w, key, partial, peers, map[string]any{
		"series":    p.series,
		"from":      p.from,
		"to":        p.to,
		"step":      p.step,
		"fn":        p.fn,
		"tier_step": tierStep,
		"points":    points,
	})
}
