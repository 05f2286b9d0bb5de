package main

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/metric"
	"repro/internal/oda"
	"repro/internal/persist"
	"repro/internal/timeseries"
)

// TestStatsHandlerSmoke exercises the /stats endpoint against a live store:
// after a few queries the payload must report the series/sample shape, the
// resident bytes as raw plus tier chunks, and the cursor pool recycling
// allocations.
func TestStatsHandlerSmoke(t *testing.T) {
	store := timeseries.NewStore(8, timeseries.WithRollups(timeseries.TierStep1m))
	id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n0")}
	for i := int64(0); i < 100; i++ {
		if err := store.Append(id, metric.Gauge, metric.UnitWatt, i*1000, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Repeated queries cycle cursors through the pool.
	for i := 0; i < 16; i++ {
		if err := store.Each(id, 0, 100_000, func(metric.Sample) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	statsHandler(store, nil, nil, nil, nil, nil)(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got["series"] != float64(1) || got["samples"] != float64(100) {
		t.Fatalf("shape: series=%v samples=%v", got["series"], got["samples"])
	}
	for _, key := range []string{
		"compressed_bytes", "compression_ratio", "resident_chunk_bytes",
		"cursor_pool_gets", "cursor_pool_news", "cursor_pool_reuse",
	} {
		if _, ok := got[key]; !ok {
			t.Fatalf("missing %q in payload %v", key, got)
		}
	}
	for _, key := range []string{"query_cache_hits", "query_cache_misses"} {
		if _, ok := got[key]; ok {
			t.Fatalf("%q reported: the store keeps no decoded chunks to count", key)
		}
	}
	tier := got["rollup"].(map[string]any)["tier_60000ms_bytes"].(float64)
	if raw := got["compressed_bytes"].(float64); tier <= 0 || got["resident_chunk_bytes"].(float64) != raw+tier {
		t.Fatalf("resident_chunk_bytes = %v, want raw %v + tier %v", got["resident_chunk_bytes"], raw, tier)
	}
	gets := got["cursor_pool_gets"].(float64)
	news := got["cursor_pool_news"].(float64)
	if gets < 16 {
		t.Fatalf("cursor_pool_gets = %v, want >= 16", gets)
	}
	if reuse := got["cursor_pool_reuse"].(float64); reuse != gets-news {
		t.Fatalf("cursor_pool_reuse = %v, want gets-news = %v", reuse, gets-news)
	}
	// No ingest server, durable store or analysis grid: those sections are
	// absent.
	if _, ok := got["batches"]; ok {
		t.Fatal("batches reported without a wire server")
	}
	if _, ok := got["persist"]; ok {
		t.Fatal("persist reported without a durable store")
	}
	if _, ok := got["scheduler"]; ok {
		t.Fatal("scheduler reported without an analysis grid")
	}
}

// TestStatsHandlerSchedulerSection: with an analysis grid mounted, /stats
// carries the wave scheduler's counters, and they advance after a sweep.
func TestStatsHandlerSchedulerSection(t *testing.T) {
	store := timeseries.NewStore(8)
	grid, err := repro.FullGrid()
	if err != nil {
		t.Fatal(err)
	}

	fetch := func() map[string]any {
		t.Helper()
		rec := httptest.NewRecorder()
		statsHandler(store, nil, nil, grid, nil, nil)(rec, httptest.NewRequest("GET", "/stats", nil))
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
		var got map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		sched, ok := got["scheduler"].(map[string]any)
		if !ok {
			t.Fatalf("missing scheduler section in %v", got)
		}
		return sched
	}

	sched := fetch()
	for _, key := range []string{
		"capabilities", "planned_waves", "sweeps", "waves", "max_wave_width",
		"conflicts_deferred", "actuators_overlapped", "panics",
	} {
		if _, ok := sched[key]; !ok {
			t.Fatalf("missing scheduler key %q in %v", key, sched)
		}
	}
	if sched["sweeps"] != float64(0) {
		t.Fatalf("sweeps = %v before any sweep", sched["sweeps"])
	}
	if sched["planned_waves"].(float64) < 2 {
		t.Fatalf("planned_waves = %v, want >= 2 for the full grid", sched["planned_waves"])
	}

	// One parallel sweep over the (empty) archive: the counters must
	// advance even though most capabilities error out for lack of
	// telemetry. Workers are pinned so the sweep takes the wave path: the
	// default sweep is serial and books one wave.
	grid.SetWorkers(4)
	grid.RunAll(&oda.RunContext{Store: store, From: 0, To: 1})
	sched = fetch()
	if sched["sweeps"] != float64(1) {
		t.Fatalf("sweeps = %v after one sweep", sched["sweeps"])
	}
	if sched["waves"].(float64) < 2 {
		t.Fatalf("waves = %v after one sweep, want >= 2", sched["waves"])
	}
}

// TestStatsHandlerPersistRecovery: after a crash and a restart, /stats says
// what recovery replayed and what it cost, beside the record count.
func TestStatsHandlerPersistRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n0")}
	for i := int64(0); i < 50; i++ {
		if err := d.Append(id, metric.Gauge, metric.UnitWatt, i*1000, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash()
	d, err = persist.Open(dir, persist.Options{Fsync: persist.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rec := httptest.NewRecorder()
	statsHandler(d.Store(), nil, d, nil, nil, nil)(rec, httptest.NewRequest("GET", "/stats", nil))
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	ps, ok := got["persist"].(map[string]any)
	if !ok {
		t.Fatalf("missing persist section in %v", got)
	}
	if ps["replayed_samples"] != float64(50) {
		t.Fatalf("replayed_samples = %v, want 50", ps["replayed_samples"])
	}
	if ps["replayed_records"] != float64(51) { // one define, fifty appends
		t.Fatalf("replayed_records = %v, want 51", ps["replayed_records"])
	}
	if secs, _ := ps["replay_seconds"].(float64); secs <= 0 {
		t.Fatalf("replay_seconds = %v, want > 0", ps["replay_seconds"])
	}
	// No snapshot was on disk, so loading one took no time.
	if ps["snapshot_load_seconds"] != float64(0) {
		t.Fatalf("snapshot_load_seconds = %v with no snapshot", ps["snapshot_load_seconds"])
	}
}
