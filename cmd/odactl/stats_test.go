package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestFetchAndRenderStats stands up a fake odad /stats endpoint and checks
// the fetch/flatten pipeline end to end, including URL normalization.
func TestFetchAndRenderStats(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stats" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{
			"samples": 1200, "series": 4, "compressed_bytes": 7400, "resident_chunk_bytes": 12345,
			"cursor_pool_gets": 37, "cursor_pool_reuse": 33,
			"persist": {"wal_records": 9},
			"scheduler": {
				"sweeps": 3, "waves": 12, "max_wave_width": 19,
				"conflicts_deferred": 45, "actuators_overlapped": 6
			},
			"rollup": {
				"folds": 480, "seals": 7, "raw_plans": 1,
				"tier_60000ms_series": 4, "tier_60000ms_picks": 11,
				"tier_60000ms_bytes": 4800, "tier_60000ms_windows": 120,
				"result_cache_hits": 5, "quota_rejected": 2
			},
			"cluster": {
				"self": "n1", "nodes": ["n1", "n2"], "replication": 2,
				"peers": [{"id": "n2", "up": true, "forwarded_entries": 88}],
				"replicas": [{"leader": "n2", "lag_bytes": 0}]
			}
		}`))
	}))
	defer srv.Close()

	for _, url := range []string{srv.URL, srv.URL + "/", srv.URL + "/stats", strings.TrimPrefix(srv.URL, "http://")} {
		stats, err := fetchStats(url)
		if err != nil {
			t.Fatalf("fetchStats(%q): %v", url, err)
		}
		out := renderStats(stats)
		for _, want := range []string{
			"samples", "cursor_pool_gets", "cursor_pool_reuse", "persist.wal_records",
			"scheduler.sweeps", "scheduler.max_wave_width", "scheduler.actuators_overlapped",
			"rollup.folds", "rollup.tier_60000ms_picks", "rollup.result_cache_hits",
			"resident_chunk_bytes         12345", "rollup.tier_60000ms_bytes    4800", "rollup.tier_60000ms_windows  120",
			"rollup.quota_rejected",
			"cluster.self", "cluster.peers.0.id", "cluster.peers.0.forwarded_entries",
			"cluster.replicas.0.lag_bytes",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("fetchStats(%q) render missing %q:\n%s", url, want, out)
			}
		}
	}

	if _, err := fetchStats(srv.URL + "/missing/stats"); err == nil {
		t.Fatal("non-200 response should error")
	}
}
