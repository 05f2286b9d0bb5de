// Command odad is the telemetry aggregation daemon: it accepts batches
// from collection agents over the wire protocol, archives them into the
// embedded TSDB, and serves the operator endpoints — /dashboard, /snapshot,
// /query, /query_range, /stats, /analyze and, with -peers, /cluster/ — that
// internal/node documents. odad maps its flags onto a node.Config, binds
// the TCP listeners, and serves the node until SIGINT.
//
//	odad -listen 127.0.0.1:9900 -http 127.0.0.1:9901 \
//	     -data-dir /var/lib/odad -fsync interval -snapshot-interval 5m
//
// With -data-dir the store is durable: every ingested batch is write-ahead
// logged before it is applied, checkpoints snapshot the store on
// -snapshot-interval, and a restart recovers the newest snapshot plus the
// WAL. The store keeps rollup tiers (-rollups, default 1m and 1h) that the
// query planner serves long windows from; raw data and each tier age out on
// their own (-retain-raw/-retain-1m/-retain-1h). /query and /query_range sit
// behind an LRU result cache (-query-cache-ttl) and per-tenant token-bucket
// quotas (X-ODA-Tenant header, -query-rate/-query-burst; HTTP 429 over quota).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/node"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9900", "wire-protocol ingest address")
	httpAddr := flag.String("http", "127.0.0.1:9901", "HTTP query address")
	var cfg node.Config
	flag.IntVar(&cfg.ChunkSize, "chunk", 0, "TSDB samples per chunk (0 = default)")
	flag.Float64Var(&cfg.RetainRawHours, "retain-raw", 0, "drop raw telemetry older than this many hours on each ingest (0 = keep all)")
	flag.Float64Var(&cfg.Retain1mHours, "retain-1m", 0, "drop 1m rollup windows older than this many hours (0 = keep all), a whole chunk at a time: 15 windows, or up to 40 where samples arrive a minute or more apart")
	flag.Float64Var(&cfg.Retain1hHours, "retain-1h", 0, "drop 1h rollup windows older than this many hours (0 = keep all), a whole chunk at a time: 15 windows, or up to 40 where samples arrive an hour or more apart")
	flag.StringVar(&cfg.Rollups, "rollups", "1m,1h", "comma-separated rollup tier resolutions (Go durations; empty = no rollups)")
	flag.StringVar(&cfg.DataDir, "data-dir", "", "durable storage directory (empty = in-memory only)")
	flag.StringVar(&cfg.Fsync, "fsync", "always", "WAL fsync policy: always|interval|never (with -data-dir)")
	flag.DurationVar(&cfg.SnapshotInterval, "snapshot-interval", 5*time.Minute, "checkpoint cadence (with -data-dir; 0 = only at shutdown)")
	flag.Float64Var(&cfg.QueryRate, "query-rate", 10, "per-tenant query tokens per second (0 = no quotas)")
	flag.Float64Var(&cfg.QueryBurst, "query-burst", 20, "per-tenant query burst ceiling")
	flag.IntVar(&cfg.QueryCacheEntries, "query-cache-entries", 1024, "result cache capacity (0 = caching off)")
	flag.DurationVar(&cfg.QueryCacheTTL, "query-cache-ttl", 10*time.Second, "result cache staleness bound")
	flag.StringVar(&cfg.NodeID, "node-id", "", "this node's cluster identity (requires -peers)")
	flag.StringVar(&cfg.Peers, "peers", "", "initial cluster membership as id=host:port,... including this node; this node binds its own entry as the cluster listener (membership evolves at runtime via odactl cluster join/leave)")
	flag.IntVar(&cfg.RF, "rf", 1, "cluster replication factor (WAL-shipped replicas per node; needs -data-dir to serve followers)")
	flag.IntVar(&cfg.VNodes, "vnodes", 0, "virtual nodes per cluster member on the placement ring (0 = default 128; higher = smoother balance, more memory)")
	flag.Parse()

	clusterAddr, err := cfg.ClusterAddr()
	if err != nil {
		log.Fatalf("odad: %v", err)
	}
	if cfg.Listener, err = net.Listen("tcp", *listen); err != nil {
		log.Fatalf("odad: %v", err)
	}
	if clusterAddr != "" {
		if cfg.ClusterListener, err = net.Listen("tcp", clusterAddr); err != nil {
			log.Fatalf("odad: cluster listen %s: %v", clusterAddr, err)
		}
	}
	n, err := node.Open(cfg)
	if err != nil {
		log.Fatalf("odad: %v", err)
	}
	if d := n.Durable(); d != nil {
		st, store := d.Stats(), n.Store()
		var nsPerSample float64
		if st.ReplayedSamples > 0 {
			nsPerSample = float64(st.ReplayDuration.Nanoseconds()) / float64(st.ReplayedSamples)
		}
		log.Printf("odad: recovered %s: snapshot=%v in %.3fs, %d WAL records (%d samples) replayed across %d segments in %.3fs (%.0f ns/sample), %d torn tails truncated, %d segments set aside (%d series, %d samples)",
			cfg.DataDir, st.SnapshotLoaded, st.SnapshotLoadDuration.Seconds(),
			st.ReplayedRecords, st.ReplayedSamples, st.ReplayedSegments, st.ReplayDuration.Seconds(), nsPerSample,
			st.TruncatedTails, st.LostSegments, store.NumSeries(), store.NumSamples())
	}
	n.Start()
	if r := n.Router(); r != nil {
		log.Printf("odad: cluster node %s on %s (%d peers, rf=%d, vnodes=%d)",
			cfg.NodeID, cfg.ClusterListener.Addr(), r.Ring().NumNodes()-1, r.Ring().RF(), r.Ring().VNodes())
	}
	log.Printf("odad: ingesting on %s", n.Wire().Addr())

	// HTTP comes up only once the archive is recovered: clients poll /stats
	// for readiness.
	httpSrv := &http.Server{Addr: *httpAddr, Handler: n.Handler()}
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
	// Node.Close drains ingest, then peer traffic, then checkpoints the
	// drained store. HTTP requests finish last (bounded), so an operator
	// mid-query sees the fully drained store rather than a connection reset.
	err = n.Close()
	if err != nil {
		log.Printf("odad: %v", err)
	}
	log.Printf("odad: ingest drained (%d batches, %d samples archived)", n.Wire().Batches(), n.Wire().Samples())
	if r := n.Router(); r != nil {
		if hints := r.PendingHints(); hints > 0 {
			log.Printf("odad: %d hinted batches for down peers not delivered", hints)
		}
	}
	if d := n.Durable(); d != nil && err == nil {
		st := d.Stats()
		log.Printf("odad: checkpointed %s (%d WAL records logged, %d fsyncs, %d checkpoints)",
			cfg.DataDir, st.WALRecords, st.Fsyncs, st.Checkpoints)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("odad: http shutdown: %v", err)
	}
}
