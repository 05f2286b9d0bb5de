package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/oda"
	"repro/internal/persist"
	"repro/internal/queryfront"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// statsPayload assembles the /stats document: store shape, ingest counters,
// the cursor pool's reuse counters, (when durable) persistence statistics,
// (when an analysis grid is mounted) the wave scheduler's cumulative
// counters, and (when the query front door is mounted or rollups configured)
// the rollup tier, planner, result-cache and quota counters.
func statsPayload(store *timeseries.Store, srv *wire.Server, durable *persist.DurableStore, grid *oda.Grid, qf *queryfront.Front, router *cluster.Router) map[string]any {
	gets, news := store.CursorPoolStats()
	// compressed_bytes and compression_ratio (16 B per sample over it) are the
	// raw chunks alone; resident_chunk_bytes adds what the rollup tiers hold,
	// and a read keeps nothing else, so it is all the sample data in memory.
	// Each figure is one walk over the series, and clients poll /stats.
	rs := store.RollupStats()
	samples, raw := store.NumSamples(), store.CompressedBytes()
	ratio, resident := 0.0, raw
	if raw > 0 {
		ratio = float64(16*samples) / float64(raw)
	}
	for _, ts := range rs.Tiers {
		resident += ts.Bytes
	}
	stats := map[string]any{
		"series":               store.NumSeries(),
		"samples":              samples,
		"compressed_bytes":     raw,
		"compression_ratio":    ratio,
		"resident_chunk_bytes": resident,
		"cursor_pool_gets":     gets,
		"cursor_pool_news":     news,
		"cursor_pool_reuse":    gets - news,
	}
	rf := store.RefStats()
	stats["refs"] = map[string]any{
		"resolves":    rf.Resolves,
		"ref_samples": rf.RefSamples,
		"stale_refs":  rf.StaleRefs,
		"epoch":       rf.Epoch,
	}
	if srv != nil {
		stats["batches"] = srv.Batches()
		stats["ingest_samples"] = srv.Samples()
		stats["ingest_errors"] = srv.Errors()
		stats["dict_defs"] = srv.DictDefs()
		stats["ref_batches"] = srv.RefBatches()
	}
	if durable != nil {
		st := durable.Stats()
		stats["persist"] = map[string]any{
			"segments":              st.Segments,
			"segment_bytes":         st.SegmentBytes,
			"wal_records":           st.WALRecords,
			"wal_bytes":             st.WALBytes,
			"fsyncs":                st.Fsyncs,
			"coalesced_syncs":       st.CoalescedSyncs,
			"checkpoints":           st.Checkpoints,
			"snapshot_bytes":        st.SnapshotBytes,
			"snapshot_loaded":       st.SnapshotLoaded,
			"replayed_segments":     st.ReplayedSegments,
			"replayed_records":      st.ReplayedRecords,
			"replayed_samples":      st.ReplayedSamples,
			"replay_seconds":        st.ReplayDuration.Seconds(),
			"snapshot_load_seconds": st.SnapshotLoadDuration.Seconds(),
			"truncated_tails":       st.TruncatedTails,
			"truncated_bytes":       st.TruncatedBytes,
			"lost_segments":         st.LostSegments,
		}
	}
	if qf != nil || len(rs.Tiers) > 0 {
		rollup := map[string]any{
			"folds":     rs.Folds,
			"seals":     rs.Seals,
			"raw_plans": rs.RawPlans,
		}
		for _, ts := range rs.Tiers {
			prefix := fmt.Sprintf("tier_%dms_", ts.Step)
			rollup[prefix+"series"] = ts.Series
			rollup[prefix+"picks"] = ts.Picks
			rollup[prefix+"bytes"] = ts.Bytes
			rollup[prefix+"windows"] = ts.Windows
		}
		if qf != nil {
			cs := qf.CacheStats()
			rollup["result_cache_hits"] = cs.Hits
			rollup["result_cache_misses"] = cs.Misses
			rollup["result_cache_evictions"] = cs.Evictions
			rollup["result_cache_entries"] = cs.Entries
			qs := qf.QuotaStats()
			rollup["quota_allowed"] = qs.Allowed
			rollup["quota_rejected"] = qs.Rejected
			rollup["quota_tenants"] = qs.Tenants
		}
		stats["rollup"] = rollup
	}
	if router != nil {
		// Membership, placement, per-peer forwarding/hinted-handoff health
		// and replication lag, as the Router tracks them.
		stats["cluster"] = router.Stats()
	}
	if grid != nil {
		st := grid.ScheduleStats()
		stats["scheduler"] = map[string]any{
			"capabilities":         grid.Len(),
			"planned_waves":        len(grid.Waves()),
			"sweeps":               st.Sweeps,
			"waves":                st.Waves,
			"max_wave_width":       st.MaxWaveWidth,
			"conflicts_deferred":   st.ConflictsDeferred,
			"actuators_overlapped": st.ActuatorsOverlapped,
			"panics":               st.Panics,
		}
	}
	return stats
}

// statsHandler serves statsPayload as JSON.
func statsHandler(store *timeseries.Store, srv *wire.Server, durable *persist.DurableStore, grid *oda.Grid, qf *queryfront.Front, router *cluster.Router) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(statsPayload(store, srv, durable, grid, qf, router)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}
