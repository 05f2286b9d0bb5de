package node

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/dashboard"
	"repro/internal/oda"
	"repro/internal/persist"
)

// routes builds the node's HTTP mux:
//
//	GET /dashboard    dashboard panels as JSON (in a cluster, over the whole
//	                  fleet, with /analyze's X-ODA-Partial header)
//	GET /snapshot     latest value of every series this node's store holds
//	                  (in a cluster, its own primaries only)
//	GET /query        planned reduction over a window
//	                  (?series=KEY&from=MS&to=MS&fn=mean)
//	GET /query_range  planned step-bucketed aggregation
//	                  (?series=KEY&from=MS&to=MS&step=MS&fn=mean)
//	GET /stats        ingest, storage, durability, rollup and scheduler stats
//	GET /analyze      one full-grid ODA sweep over the archive
//	                  (?window_hours=N, default 6)
//
// A clustered node also serves membership administration; a single node
// has no membership to administer, so /cluster/ is not mounted on it:
//
//	GET  /cluster/status       topology epoch, members, peer health, replicas
//	POST /cluster/join?seed=A  join the cluster reachable at seed host:port
//	POST /cluster/leave        hand off this node's data and leave
func (n *Node) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/dashboard", func(w http.ResponseWriter, r *http.Request) {
		a := n.archive()
		panels := []dashboard.Panel{{Title: "Facility", WindowMs: 6 * 3600 * 1000}}
		d := &dashboard.Dashboard{Store: a, Panels: panels, Latest: n.local.latest.Load}
		now, err := d.Now(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		data := d.Snapshot(now)
		markPartial(w, a.PartialPeers())
		writeJSON(w, data)
	})
	mux.HandleFunc("/snapshot", n.handleSnapshot)
	mux.HandleFunc("/query", n.qf.HandleQuery)
	mux.HandleFunc("/query_range", n.qf.HandleQueryRange)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, n.stats()) })
	mux.HandleFunc("/analyze", analyzeHandler(n.grid, n.archive, n.local.latest.Load))
	if n.router == nil {
		return mux
	}
	router := n.router
	mux.HandleFunc("/cluster/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, router.Stats())
	})
	mux.HandleFunc("/cluster/join", post("joined", func(r *http.Request) (int, error) {
		seed := r.URL.Query().Get("seed")
		if seed == "" {
			return http.StatusBadRequest, errors.New("missing seed parameter (seed=host:port of any current member)")
		}
		return http.StatusConflict, router.JoinCluster(seed)
	}, router))
	mux.HandleFunc("/cluster/leave", post("left", func(*http.Request) (int, error) {
		return http.StatusConflict, router.LeaveCluster()
	}, router))
	return mux
}

// post serves a membership change: POST only; a failed change answers its
// error with the status do returns, a done one {"<done>":true,"epoch":N}.
func post(done string, do func(*http.Request) (int, error), router *cluster.Router) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if code, err := do(r); err != nil {
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{%q:true,\"epoch\":%d}\n", done, router.Epoch())
	}
}

// handleSnapshot serves the latest sample of every series in this node's
// store. It stays shard-local in a cluster: it needs Latest, which the
// archive does not offer, since no capability reads it.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string  `json:"id"`
		T     int64   `json:"t"`
		Value float64 `json:"value"`
	}
	var out []entry
	for _, se := range n.store.Snapshot("", nil) {
		out = append(out, entry{ID: se.ID.Key(), T: se.Sample.T, Value: se.Sample.V})
	}
	writeJSON(w, out)
}

// writeJSON serves v as a JSON document.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// stats assembles the /stats document: store shape, ingest counters, the
// cursor pool's reuse counters, (when durable) persistence statistics, the
// rollup tier, planner, result-cache and quota counters, (when clustered)
// the router's view, and the wave scheduler's cumulative counters.
func (n *Node) stats() map[string]any {
	store, srv := n.store, n.srv
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
		"batches":              srv.Batches(),
		"ingest_samples":       srv.Samples(),
		"ingest_errors":        srv.Errors(),
		"ingest_rejected":      n.Rejected(),
		"dict_defs":            srv.DictDefs(),
		"ref_batches":          srv.RefBatches(),
		"refs":                 store.RefStats(),
	}
	if n.durable != nil {
		st := n.durable.Stats()
		stats["persist"] = struct {
			persist.Stats
			ReplaySeconds       float64 `json:"replay_seconds"`
			SnapshotLoadSeconds float64 `json:"snapshot_load_seconds"`
		}{st, st.ReplayDuration.Seconds(), st.SnapshotLoadDuration.Seconds()}
	}
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
	cs := n.qf.CacheStats()
	rollup["result_cache_hits"] = cs.Hits
	rollup["result_cache_misses"] = cs.Misses
	rollup["result_cache_evictions"] = cs.Evictions
	rollup["result_cache_entries"] = cs.Entries
	qs := n.qf.QuotaStats()
	rollup["quota_allowed"] = qs.Allowed
	rollup["quota_rejected"] = qs.Rejected
	rollup["quota_tenants"] = qs.Tenants
	stats["rollup"] = rollup
	if n.router != nil {
		// Membership, placement, per-peer forwarding/hinted-handoff health
		// and replication lag, as the Router tracks them.
		stats["cluster"] = n.router.Stats()
	}
	stats["scheduler"] = struct {
		oda.ScheduleStats
		Capabilities int `json:"capabilities"`
		PlannedWaves int `json:"planned_waves"`
	}{n.grid.ScheduleStats(), n.grid.Len(), len(n.grid.Waves())}
	return stats
}

// analyzeHandler runs one wave-scheduled sweep of the full capability grid
// over the archive one request reads and returns every capability's summary
// and values, the per-capability errors (capabilities that need a live
// system handle report so here rather than aborting the sweep), the
// schedule the sweep ran with, and partial_peers: the cluster members whose
// data was read from a replica or left out (also in the X-ODA-Partial
// header; empty on a single node). ?window_hours bounds the analysis window
// back from the newest ingested sample (default 6).
func analyzeHandler(grid *oda.Grid, archive func() archive, latest func() int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		window := int64(6 * 3600 * 1000)
		if s := r.URL.Query().Get("window_hours"); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			// NaN fails every comparison: only a window that fits passes.
			if err != nil || !(v > 0 && v*3600*1000 < math.MaxInt64) {
				http.Error(w, "window_hours must be a positive number of hours whose milliseconds fit an int64", http.StatusBadRequest)
				return
			}
			window = int64(v * 3600 * 1000)
		}
		to := latest() + 1
		from := max(0, to-window)
		a := archive()
		results, errs := grid.RunAll(&oda.RunContext{Store: a, From: from, To: to})
		payload := struct {
			From         int64                 `json:"from"`
			To           int64                 `json:"to"`
			Results      map[string]oda.Result `json:"results"`
			Errors       map[string]string     `json:"errors"`
			Waves        [][]string            `json:"waves"`
			PartialPeers []string              `json:"partial_peers"`
		}{from, to, results, make(map[string]string, len(errs)), grid.Waves(), a.PartialPeers()}
		for name, err := range errs {
			payload.Errors[name] = err.Error()
		}
		markPartial(w, payload.PartialPeers)
		writeJSON(w, payload)
	}
}

// markPartial names, in the X-ODA-Partial header, the cluster members whose
// data an answer read from a replica or left out; a whole answer carries
// no header. It must run before the body is written.
func markPartial(w http.ResponseWriter, peers []string) {
	if len(peers) > 0 {
		w.Header().Set("X-ODA-Partial", strings.Join(peers, ","))
	}
}
