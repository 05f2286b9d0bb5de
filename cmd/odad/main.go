// Command odad is the telemetry aggregation daemon: it accepts batches
// from collection agents over the wire protocol, archives them into the
// embedded TSDB, and serves operator endpoints — the dashboard JSON, the
// latest-state snapshot, and store statistics. It is the piece a
// production deployment would run per cluster, with odasim (or real
// agents) pointed at it.
//
// With -data-dir set the store is durable: every ingested batch is
// write-ahead logged before it is applied, checkpoints snapshot the store
// on -snapshot-interval, and a restart recovers the pre-crash state from
// the newest snapshot plus WAL replay.
//
// Usage:
//
//	odad -listen 127.0.0.1:9900 -http 127.0.0.1:9901 \
//	     -data-dir /var/lib/odad -fsync interval -snapshot-interval 5m
//
// The store keeps multi-resolution rollup tiers (-rollups, default 1m and
// 1h): every append folds into per-tier window accumulators, and the query
// planner serves long-window aggregations from the coarsest exact tier
// instead of scanning raw samples. Tiers age out independently of raw data
// via -retain-raw/-retain-1m/-retain-1h.
//
// Endpoints:
//
//	GET /dashboard    dashboard panels as JSON
//	GET /snapshot     latest value of every series
//	GET /query        planned reduction over a window
//	                  (?series=KEY&from=MS&to=MS&fn=mean)
//	GET /query_range  planned step-bucketed aggregation
//	                  (?series=KEY&from=MS&to=MS&step=MS&fn=mean)
//	GET /stats        ingest, storage, durability, rollup and scheduler stats
//	GET /analyze      one full-grid ODA sweep over the archive
//	                  (?window_hours=N, default 6)
//
// Clustered nodes (-peers) additionally serve membership administration:
//
//	GET  /cluster/status       topology epoch, members, peer health, replicas
//	POST /cluster/join?seed=A  join the cluster reachable at seed host:port
//	POST /cluster/leave        hand off this node's data and leave
//
// /query and /query_range sit behind an LRU result cache (staleness
// bounded by -query-cache-ttl) and per-tenant token-bucket quotas
// (X-ODA-Tenant header, -query-rate/-query-burst; over-quota requests get
// HTTP 429).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/dashboard"
	"repro/internal/persist"
	"repro/internal/queryfront"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// parsePeers parses -peers: comma-separated id=host:port entries naming the
// full static cluster membership (including this node).
func parsePeers(s string) ([]cluster.Peer, error) {
	var out []cluster.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("peer %q must be id=host:port", part)
		}
		out = append(out, cluster.Peer{ID: id, Addr: addr})
	}
	return out, nil
}

func main() {
	listen := flag.String("listen", "127.0.0.1:9900", "wire-protocol ingest address")
	httpAddr := flag.String("http", "127.0.0.1:9901", "HTTP query address")
	chunkSize := flag.Int("chunk", 0, "TSDB samples per chunk (0 = default)")
	retainRaw := flag.Float64("retain-raw", 0, "drop raw telemetry older than this many hours on each ingest (0 = keep all)")
	retain1m := flag.Float64("retain-1m", 0, "drop 1m rollup windows older than this many hours (0 = keep all)")
	retain1h := flag.Float64("retain-1h", 0, "drop 1h rollup windows older than this many hours (0 = keep all)")
	rollups := flag.String("rollups", "1m,1h", "comma-separated rollup tier resolutions (Go durations; empty = no rollups)")
	dataDir := flag.String("data-dir", "", "durable storage directory (empty = in-memory only)")
	fsyncMode := flag.String("fsync", "always", "WAL fsync policy: always|interval|never (with -data-dir)")
	snapEvery := flag.Duration("snapshot-interval", 5*time.Minute, "checkpoint cadence (with -data-dir; 0 = only at shutdown)")
	queryRate := flag.Float64("query-rate", 10, "per-tenant query tokens per second (0 = no quotas)")
	queryBurst := flag.Float64("query-burst", 20, "per-tenant query burst ceiling")
	queryCacheEntries := flag.Int("query-cache-entries", 1024, "result cache capacity (0 = caching off)")
	queryCacheTTL := flag.Duration("query-cache-ttl", 10*time.Second, "result cache staleness bound")
	nodeID := flag.String("node-id", "", "this node's cluster identity (requires -peers)")
	peersFlag := flag.String("peers", "", "initial cluster membership as id=host:port,... including this node; this node binds its own entry as the cluster listener (membership evolves at runtime via odactl cluster join/leave)")
	rf := flag.Int("rf", 1, "cluster replication factor (WAL-shipped replicas per node; needs -data-dir to serve followers)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per cluster member on the placement ring (0 = default 128; higher = smoother balance, more memory)")
	flag.Parse()

	if *rf < 1 {
		log.Fatalf("odad: -rf must be >= 1, got %d", *rf)
	}
	if *vnodes < 0 || *vnodes > 4096 {
		log.Fatalf("odad: -vnodes must be in [1, 4096] (or 0 for the default), got %d", *vnodes)
	}

	tierSteps, err := queryfront.ParseRollupSteps(*rollups)
	if err != nil {
		log.Fatalf("odad: -rollups: %v", err)
	}
	storeOpts := []timeseries.Option{}
	if len(tierSteps) > 0 {
		storeOpts = append(storeOpts, timeseries.WithRollups(tierSteps...))
	}

	// With -data-dir the durable store front-ends the TSDB: mutations go
	// through the WAL, reads go straight to the recovered in-memory store.
	// local is whichever of the two takes this node's appends.
	var (
		store   *timeseries.Store
		durable *persist.DurableStore
		local   timeseries.RefAppender
	)
	if *dataDir != "" {
		policy, err := persist.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatalf("odad: %v", err)
		}
		durable, err = persist.Open(*dataDir, persist.Options{
			ChunkSize:        *chunkSize,
			StoreOptions:     storeOpts,
			Fsync:            policy,
			SnapshotInterval: *snapEvery,
		})
		if err != nil {
			log.Fatalf("odad: open %s: %v", *dataDir, err)
		}
		store, local = durable.Store(), durable
		st := durable.Stats()
		var nsPerSample float64
		if st.ReplayedSamples > 0 {
			nsPerSample = float64(st.ReplayDuration.Nanoseconds()) / float64(st.ReplayedSamples)
		}
		log.Printf("odad: recovered %s: snapshot=%v in %.3fs, %d WAL records (%d samples) replayed across %d segments in %.3fs (%.0f ns/sample), %d torn tails truncated, %d segments set aside (%d series, %d samples)",
			*dataDir, st.SnapshotLoaded, st.SnapshotLoadDuration.Seconds(),
			st.ReplayedRecords, st.ReplayedSamples, st.ReplayedSegments, st.ReplayDuration.Seconds(), nsPerSample,
			st.TruncatedTails, st.LostSegments, store.NumSeries(), store.NumSamples())
	} else {
		store = timeseries.NewStore(*chunkSize, storeOpts...)
		local = store
	}

	// With -peers this node joins a static cluster: a Router places every
	// series on the consistent-hash ring, forwarding foreign appends to
	// their owners and scattering queries; a cluster listener (bound to this
	// node's own -peers entry) accepts what the other nodes send back.
	var (
		router     *cluster.Router
		clusterSrv *cluster.Server
	)
	if *peersFlag != "" {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			log.Fatalf("odad: -peers: %v", err)
		}
		if *nodeID == "" {
			log.Fatalf("odad: -peers requires -node-id")
		}
		router, err = cluster.New(cluster.Config{
			Self:           *nodeID,
			Peers:          peers,
			VNodes:         *vnodes,
			Replication:    *rf,
			Local:          local,
			Store:          store,
			Durable:        durable,
			ReplicaOptions: storeOpts,
		})
		if err != nil {
			log.Fatalf("odad: %v", err)
		}
		var selfAddr string
		for _, p := range peers {
			if p.ID == *nodeID {
				selfAddr = p.Addr
			}
		}
		clusterSrv, err = cluster.Listen(selfAddr, router)
		if err != nil {
			log.Fatalf("odad: cluster listen %s: %v", selfAddr, err)
		}
		router.Start(0, 0) // default flush/health cadence
		log.Printf("odad: cluster node %s on %s (%d peers, rf=%d, vnodes=%d)",
			*nodeID, clusterSrv.Addr(), len(peers)-1, router.Ring().RF(), router.Ring().VNodes())
	} else if *nodeID != "" || *rf != 1 || *vnodes != 0 {
		log.Fatalf("odad: -node-id/-rf/-vnodes need -peers")
	}
	// Single-node ingest goes through a ref cache: each series resolves to
	// an interned handle once, then appends skip key building and map
	// lookups entirely. Clustered nodes get the same treatment inside the
	// router's local path; the router also splits each batch, landing owned
	// series locally and forwarding the rest to their owning peers.
	ingest := timeseries.NewRefCache(local).AppendBatch
	if router != nil {
		ingest = router.AppendBatch
	}
	// The retention cutoffs and /analyze's window hang off the newest
	// timestamp seen; a recovered archive already has one.
	var latest atomic.Int64
	latest.Store(newestSample(store))

	srv, err := wire.NewServer(*listen, func(b *wire.Batch) {
		n := 0
		for i := range b.Records {
			n += len(b.Records[i].Samples)
		}
		entries := make([]timeseries.BatchEntry, 0, n)
		newest := int64(math.MinInt64)
		for _, rec := range b.Records {
			for _, sm := range rec.Samples {
				entries = append(entries, timeseries.BatchEntry{
					ID: rec.ID, Kind: rec.Kind, Unit: rec.Unit, T: sm.T, V: sm.V,
				})
				newest = max(newest, sm.T)
			}
		}
		// Publish the batch's newest timestamp once, not per sample.
		for {
			cur := latest.Load()
			if newest <= cur || latest.CompareAndSwap(cur, newest) {
				break
			}
		}
		// Ingest errors (out-of-order duplicates from agent restarts) are
		// tolerated; the server counts batches.
		_, _ = ingest(entries)
		now := latest.Load()
		if *retainRaw > 0 {
			cutoff := now - int64(*retainRaw*3600*1000)
			if durable != nil {
				_, _ = durable.Retain(cutoff)
			} else {
				store.Retain(cutoff)
			}
		}
		// Rollup tiers age out on their own schedules: raw days, minutely
		// weeks, hourly years.
		for _, tc := range []struct {
			step  int64
			hours float64
		}{{timeseries.TierStep1m, *retain1m}, {timeseries.TierStep1h, *retain1h}} {
			if tc.hours <= 0 {
				continue
			}
			cutoff := now - int64(tc.hours*3600*1000)
			if durable != nil {
				_, _ = durable.RetainTier(tc.step, cutoff)
			} else {
				store.RetainTier(tc.step, cutoff)
			}
		}
	})
	if err != nil {
		log.Fatalf("odad: %v", err)
	}
	log.Printf("odad: ingesting on %s", srv.Addr())

	db := &dashboard.Dashboard{
		Store: store,
		Panels: []dashboard.Panel{
			{Title: "Facility", Name: "", Selector: nil, WindowMs: 6 * 3600 * 1000},
		},
	}
	mux := http.NewServeMux()
	mux.Handle("/dashboard", db.Handler())
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		type entry struct {
			ID    string  `json:"id"`
			T     int64   `json:"t"`
			Value float64 `json:"value"`
		}
		var out []entry
		for _, se := range store.Snapshot("", nil) {
			out = append(out, entry{ID: se.ID.Key(), T: se.Sample.T, Value: se.Sample.V})
		}
		if err := json.NewEncoder(w).Encode(out); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	// The analysis grid runs read-only sweeps over the archive on demand;
	// capabilities that need the live system handle report per-capability
	// errors instead of failing the sweep.
	grid, err := repro.FullGrid()
	if err != nil {
		log.Fatalf("odad: %v", err)
	}
	// Clustered nodes answer /query and /query_range for ANY series: the
	// router routes each request to the owning peer (or a replica when the
	// owner is down, flagged via X-ODA-Partial).
	var backend queryfront.Backend = queryfront.ForStore(store)
	if router != nil {
		backend = router
	}
	qf := queryfront.New(backend, *queryCacheEntries, *queryCacheTTL, *queryRate, *queryBurst)
	mux.HandleFunc("/query", qf.HandleQuery)
	mux.HandleFunc("/query_range", qf.HandleQueryRange)
	mux.HandleFunc("/stats", statsHandler(store, srv, durable, grid, qf, router))
	mux.HandleFunc("/analyze", analyzeHandler(grid, store, latest.Load))
	// Cluster administration (odactl cluster ...): runtime membership
	// changes and the live topology/peer view. Mounted only on clustered
	// nodes — a single-node daemon has no membership to administer.
	if router != nil {
		mux.HandleFunc("/cluster/status", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(router.Stats()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/cluster/join", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			seed := r.URL.Query().Get("seed")
			if seed == "" {
				http.Error(w, "missing seed parameter (seed=host:port of any current member)", http.StatusBadRequest)
				return
			}
			if err := router.JoinCluster(seed); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"joined\":true,\"epoch\":%d}\n", router.Epoch())
		})
		mux.HandleFunc("/cluster/leave", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			if err := router.LeaveCluster(); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"left\":true,\"epoch\":%d}\n", router.Epoch())
		})
	}

	httpSrv := &http.Server{Addr: *httpAddr, Handler: mux}
	go func() {
		log.Printf("odad: serving queries on http://%s", *httpAddr)
		if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("odad: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("odad: shutting down")
	// Drain order matters: close the ingest side first. wire.Server.Close
	// stops accepting, reads every connection whose agent has hung up to its
	// end, and closes any still open after a bounded drain, so an idle agent
	// cannot hold shutdown hostage. An agent that closes its client before
	// the signal has every batch it sent archived before anything else shuts
	// down. Then checkpoint the drained store (persist.Close writes a final
	// snapshot, so the next start recovers replay-free) and finally let
	// HTTP requests finish (bounded), so an operator mid-query sees the
	// fully drained store rather than a connection reset.
	if err := srv.Close(); err != nil {
		log.Printf("odad: ingest close: %v", err)
	}
	log.Printf("odad: ingest drained (%d batches, %d samples archived)", srv.Batches(), srv.Samples())
	if router != nil {
		// Flush pending forwards to peers (Stop does a final Flush), then
		// stop accepting peer traffic once nothing more will be routed here.
		router.Stop()
		if err := clusterSrv.Close(); err != nil {
			log.Printf("odad: cluster close: %v", err)
		}
		if hints := router.PendingHints(); hints > 0 {
			log.Printf("odad: %d hinted batches for down peers not delivered", hints)
		}
	}
	if durable != nil {
		st := durable.Stats()
		if err := durable.Close(); err != nil {
			log.Printf("odad: persist close: %v", err)
		} else {
			log.Printf("odad: checkpointed %s (%d WAL records logged, %d fsyncs, %d checkpoints)",
				*dataDir, st.WALRecords, st.Fsyncs, st.Checkpoints+1)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("odad: http shutdown: %v", err)
	}
}
