package node

import (
	"fmt"
	"net/url"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// TestStatsRollupSection: with the front door mounted, /stats carries the
// rollup tier, planner, result-cache and quota counters. The handlers
// themselves are covered in internal/queryfront; this pins the node's wiring.
func TestStatsRollupSection(t *testing.T) {
	n := openNode(t, Config{ChunkSize: 64, Rollups: "1m,1h", RF: 1,
		QueryCacheEntries: 64, QueryCacheTTL: time.Minute, QueryRate: 1000, QueryBurst: 1000})
	store := n.Store()
	id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n0")}
	for i := int64(0); i < 2*360+10; i++ { // ~2h at 10s cadence
		if err := store.Append(id, metric.Gauge, metric.UnitWatt, i*10_000, float64(i%50)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // one miss, one hit
		rec := get(t, n, "/query?series="+url.QueryEscape(id.Key())+"&from=0&to=7200000&fn=mean")
		if rec.Code != 200 {
			t.Fatalf("query status %d", rec.Code)
		}
	}

	got := decode(t, get(t, n, "/stats"))
	rollup, ok := got["rollup"].(map[string]any)
	if !ok {
		t.Fatalf("missing rollup section in %v", got)
	}
	for _, key := range []string{
		"folds", "seals", "raw_plans",
		fmt.Sprintf("tier_%dms_series", int64(timeseries.TierStep1m)),
		fmt.Sprintf("tier_%dms_picks", int64(timeseries.TierStep1h)),
		fmt.Sprintf("tier_%dms_bytes", int64(timeseries.TierStep1h)),
		"result_cache_hits", "result_cache_misses", "result_cache_evictions", "result_cache_entries",
		"quota_allowed", "quota_rejected", "quota_tenants",
	} {
		if _, ok := rollup[key]; !ok {
			t.Fatalf("missing rollup key %q in %v", key, rollup)
		}
	}
	if rollup["folds"].(float64) == 0 {
		t.Fatal("no folds counted")
	}
	// What the tiers hold is visible: 730 samples at 10 s seal 121 minutes and
	// 2 hours, and resident_chunk_bytes is the raw payload plus both tiers.
	m1, h1 := rollup["tier_60000ms_bytes"].(float64), rollup["tier_3600000ms_bytes"].(float64)
	if rollup["tier_60000ms_windows"].(float64) != 121 || rollup["tier_3600000ms_windows"].(float64) != 2 || m1 <= 0 || h1 <= 0 {
		t.Fatalf("tier sizes: %v", rollup)
	}
	if raw := got["compressed_bytes"].(float64); raw <= 0 || got["resident_chunk_bytes"].(float64) != raw+m1+h1 {
		t.Fatalf("resident_chunk_bytes = %v, want %v + %v + %v", got["resident_chunk_bytes"], raw, m1, h1)
	}
	if rollup["result_cache_hits"].(float64) != 1 || rollup["quota_allowed"].(float64) != 2 {
		t.Fatalf("front door counters: hits=%v allowed=%v", rollup["result_cache_hits"], rollup["quota_allowed"])
	}
}
