// Package node assembles one telemetry node — the TSDB (durable with a data
// directory), the cluster router and its peer listener when there are peers,
// the wire ingest server, the query front door and the analysis grid — and
// serves its HTTP endpoints. cmd/odad is this package plus flags, TCP
// listeners and signals; the chaos campaign runs the same Node over
// in-memory transports.
package node

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/oda"
	"repro/internal/persist"
	"repro/internal/queryfront"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// Config describes one node. Every field but the three seams (the two
// listeners and Dial) is an odad flag, named in its comment, with the
// flag's meaning; string-valued flags are parsed by Open, so an invalid
// configuration is refused in one place with the flag's name in the error.
type Config struct {
	// Listener accepts agents' wire connections. Required; the Node owns it
	// from Open on, also when Open fails.
	Listener net.Listener
	// ClusterListener accepts peer traffic. Required with Peers and refused
	// without; owned like Listener. ClusterAddr says where to bind it.
	ClusterListener net.Listener
	// Dial opens connections to peers (nil = TCP).
	Dial wire.Dialer

	ChunkSize        int           // -chunk: samples per chunk (0 = default)
	Rollups          string        // -rollups: tier resolutions, e.g. "1m,1h" ("" = none)
	RetainRawHours   float64       // -retain-raw: raw data kept behind the watermark (0 = all)
	Retain1mHours    float64       // -retain-1m
	Retain1hHours    float64       // -retain-1h
	DataDir          string        // -data-dir: durable storage ("" = in memory)
	Fsync            string        // -fsync: always|interval|never (with DataDir)
	SnapshotInterval time.Duration // -snapshot-interval (0 = only at Close)

	QueryRate         float64       // -query-rate: per-tenant tokens/s (0 = no quotas)
	QueryBurst        float64       // -query-burst
	QueryCacheEntries int           // -query-cache-entries (0 = no caching)
	QueryCacheTTL     time.Duration // -query-cache-ttl

	NodeID string // -node-id
	Peers  string // -peers: id=host:port,... including this node
	RF     int    // -rf: replication factor, >= 1
	VNodes int    // -vnodes: ring points per member (0 = default)
}

// parsed is a Config's string flags, parsed and cross-checked.
type parsed struct {
	storeOpts []timeseries.Option
	fsync     persist.FsyncPolicy
	peers     []cluster.Peer // nil for a single node
	selfAddr  string
}

// parse validates c's flag fields (not its listeners).
func (c Config) parse() (parsed, error) {
	var p parsed
	if c.RF < 1 {
		return p, fmt.Errorf("-rf must be >= 1, got %d", c.RF)
	}
	if c.VNodes < 0 || c.VNodes > 4096 {
		return p, fmt.Errorf("-vnodes must be in [1, 4096] (or 0 for the default), got %d", c.VNodes)
	}
	steps, err := queryfront.ParseRollupSteps(c.Rollups)
	if err != nil {
		return p, fmt.Errorf("-rollups: %w", err)
	}
	if len(steps) > 0 {
		p.storeOpts = []timeseries.Option{timeseries.WithRollups(steps...)}
	}
	if c.DataDir != "" {
		if p.fsync, err = persist.ParseFsyncPolicy(c.Fsync); err != nil {
			return p, err
		}
	}
	if c.Peers == "" {
		if c.NodeID != "" || c.RF != 1 || c.VNodes != 0 {
			return p, errors.New("-node-id/-rf/-vnodes need -peers")
		}
		return p, nil
	}
	for _, part := range strings.Split(c.Peers, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if !ok || id == "" || addr == "" {
			return p, fmt.Errorf("-peers: peer %q must be id=host:port", part)
		}
		p.peers = append(p.peers, cluster.Peer{ID: id, Addr: addr})
		if id == c.NodeID {
			p.selfAddr = addr
		}
	}
	if c.NodeID == "" {
		return p, errors.New("-peers requires -node-id")
	}
	if p.selfAddr == "" {
		return p, fmt.Errorf("cluster: self node %q not in peer set", c.NodeID)
	}
	return p, nil
}

// ClusterAddr validates c the way Open does and returns the address of this
// node's own -peers entry, where its ClusterListener must be bound ("" for a
// single node).
func (c Config) ClusterAddr() (string, error) {
	p, err := c.parse()
	return p.selfAddr, err
}

// Node is one assembled telemetry node.
type Node struct {
	cfg        Config
	store      *timeseries.Store
	durable    *persist.DurableStore // nil in memory
	local      *appender
	router     *cluster.Router // nil for a single node
	clusterSrv *cluster.Server
	srv        *wire.Server
	ingest     func([]timeseries.BatchEntry) (int, error)
	archive    func() archive // what one read request (a sweep, a render) reads
	grid       *oda.Grid
	qf         *queryfront.Front
	mux        *http.ServeMux
}

// Open recovers or creates the store, builds the router when c has Peers,
// and starts serving ingest and peer traffic on c's listeners. The router's
// maintenance loop waits for Start.
func Open(c Config) (_ *Node, err error) {
	defer func() {
		if err != nil {
			for _, ln := range []net.Listener{c.Listener, c.ClusterListener} {
				if ln != nil {
					ln.Close()
				}
			}
		}
	}()
	p, err := c.parse()
	if err != nil {
		return nil, err
	}
	if c.Listener == nil {
		return nil, errors.New("node: no ingest listener")
	}
	if (c.ClusterListener != nil) != (p.peers != nil) {
		return nil, errors.New("node: a cluster listener goes with -peers, and only with it")
	}
	// The analysis grid runs read-only sweeps over the archive on demand;
	// capabilities that need the live system handle report per-capability
	// errors instead of failing the sweep.
	grid, err := repro.FullGrid()
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: c, grid: grid}

	// With a data dir the durable store front-ends the TSDB: mutations go
	// through the WAL, reads go straight to the recovered in-memory store.
	var base timeseries.RefAppender
	if c.DataDir != "" {
		n.durable, err = persist.Open(c.DataDir, persist.Options{
			ChunkSize:        c.ChunkSize,
			StoreOptions:     p.storeOpts,
			Fsync:            p.fsync,
			SnapshotInterval: c.SnapshotInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", c.DataDir, err)
		}
		n.store, base = n.durable.Store(), n.durable
	} else {
		n.store = timeseries.NewStore(c.ChunkSize, p.storeOpts...)
		base = n.store
	}
	n.local = &appender{RefAppender: base, n: n}
	// A recovered archive already has a watermark.
	n.local.latest.Store(newestSample(n.store))

	// Ingest resolves each series to an interned ref once, then appends by
	// ref: through a RefCache on a single node, through the router's own
	// RefCache in a cluster, where the router also splits each batch into
	// the series this node owns and forwards to their owning peers.
	var backend queryfront.Backend = queryfront.ForStore(n.store)
	n.ingest = timeseries.NewRefCache(n.local).AppendBatch
	n.archive = func() archive { return shard{n.store} }
	if p.peers != nil {
		n.router, err = cluster.New(cluster.Config{
			Self:           c.NodeID,
			Peers:          p.peers,
			VNodes:         c.VNodes,
			Replication:    c.RF,
			Dial:           c.Dial,
			Local:          n.local,
			Store:          n.store,
			Durable:        n.durable,
			ReplicaOptions: p.storeOpts,
		})
		if err != nil {
			if n.durable != nil {
				n.durable.Close()
			}
			return nil, err
		}
		// A clustered node answers /query and /query_range for any series:
		// the router sends each request to the owner (or a replica, marked
		// partial, when the owner is down). /analyze and /dashboard read the
		// whole fleet the same way, through one router view per request.
		n.ingest, backend = n.router.AppendBatch, n.router
		n.archive = func() archive { return n.router.Archive() }
	}
	n.qf = queryfront.New(backend, c.QueryCacheEntries, c.QueryCacheTTL, c.QueryRate, c.QueryBurst)
	n.mux = n.routes()
	n.srv = wire.NewServerListener(c.Listener, n.Ingest)
	if n.router != nil {
		n.clusterSrv = cluster.NewServer(c.ClusterListener, n.router)
	}
	return n, nil
}

// Start launches the router's flush, failure-detector and replication loop
// at its default cadence; a single node has none. Tests that drive Flush,
// CheckPeers and PumpReplication themselves do not call it.
func (n *Node) Start() {
	if n.router != nil {
		n.router.Start(0, 0)
	}
}

// Close drains and stops the node. Order matters: ingest first —
// wire.Server.Close stops accepting, reads every connection whose agent has
// hung up to its end and closes any still open after a bounded drain, so an
// agent that closed its client before Close has every batch it sent
// archived, and an idle one cannot hold shutdown hostage. Then the router
// flushes pending forwards and waits until every live peer has applied
// them, and stops; then the cluster server stops taking peer traffic, once
// nothing more will be routed here. Last, the durable store checkpoints the
// drained state, so the next Open recovers without replay.
func (n *Node) Close() error {
	errs := []error{wrap("ingest close", n.srv.Close())}
	if n.router != nil {
		// One probe round after the flush is an application barrier: a peer
		// answers a ping only after applying every frame sent before it.
		n.router.Flush()
		n.router.CheckPeers()
		n.router.Stop()
		errs = append(errs, wrap("cluster close", n.clusterSrv.Close()))
	}
	if n.durable != nil {
		errs = append(errs, wrap("persist close", n.durable.Close()))
	}
	return errors.Join(errs...)
}

func wrap(what string, err error) error {
	if err != nil {
		err = fmt.Errorf("%s: %w", what, err)
	}
	return err
}

// Ingest is the wire server's one handler: it lands an agent's batch as one
// exact-size []BatchEntry. What the store refuses (an out-of-order or
// duplicate sample from an agent restart) is counted by the local appender,
// on whichever node owns the series.
func (n *Node) Ingest(b *wire.Batch) {
	count := 0
	for i := range b.Records {
		count += len(b.Records[i].Samples)
	}
	entries := make([]timeseries.BatchEntry, 0, count)
	for _, rec := range b.Records {
		for _, sm := range rec.Samples {
			entries = append(entries, timeseries.BatchEntry{
				ID: rec.ID, Kind: rec.Kind, Unit: rec.Unit, T: sm.T, V: sm.V,
			})
		}
	}
	_, _ = n.ingest(entries)
}

// Handler is the node's HTTP mux (see routes).
func (n *Node) Handler() http.Handler { return n.mux }

// Store is the node's read store: what it holds as a primary.
func (n *Node) Store() *timeseries.Store { return n.store }

// Durable is the WAL front of Store, nil for an in-memory node.
func (n *Node) Durable() *persist.DurableStore { return n.durable }

// Router is the cluster router, nil for a single node.
func (n *Node) Router() *cluster.Router { return n.router }

// Wire is the ingest server, for its counters.
func (n *Node) Wire() *wire.Server { return n.srv }

// Rejected counts samples the local store refused (/stats
// ingest_rejected).
func (n *Node) Rejected() uint64 { return n.local.rejected.Load() }

// archive is what one read request sweeps: everything the grid and the
// dashboard read (oda.Archive), plus the owners whose data it could not read
// from their primary, which /analyze reports as partial_peers.
type archive interface {
	oda.Archive
	PartialPeers() []string
}

// shard is a single node's archive: its store holds every series, so no
// read is ever partial.
type shard struct{ *timeseries.Store }

// PartialPeers implements archive.
func (shard) PartialPeers() []string { return []string{} }

// appender is the node's one local appender: the store or the durable store
// it embeds, plus what every landing of local data owes the node. The
// RefCache in front of it (the node's or, in a cluster, the router's)
// appends by ref only, so agent batches, peer forwards and join imports all
// come through AppendRefs.
type appender struct {
	timeseries.RefAppender
	n *Node
	// latest is the newest timestamp landed here — the watermark the
	// retention cutoffs and /analyze's window hang off. It is what
	// newestSample recovers after a restart.
	latest   atomic.Int64
	rejected atomic.Uint64
}

// AppendRefs implements timeseries.RefAppender: it books the call's
// rejected count, publishes its newest timestamp once, then runs retention
// against the watermark.
func (a *appender) AppendRefs(entries []timeseries.RefEntry) (int, error) {
	accepted, err := a.RefAppender.AppendRefs(entries)
	if len(entries) == 0 {
		return accepted, err
	}
	newest := int64(math.MinInt64)
	for i := range entries {
		newest = max(newest, entries[i].T)
	}
	a.rejected.Add(uint64(len(entries) - accepted))
	for {
		cur := a.latest.Load()
		if newest <= cur || a.latest.CompareAndSwap(cur, newest) {
			break
		}
	}
	a.n.retain(a.latest.Load())
	return accepted, err
}

// newestSample returns the timestamp of the newest sample in store (0 for
// an empty store): what the ingest watermark must start from after a
// restart recovered an archive, before the first new batch moves it.
func newestSample(store *timeseries.Store) int64 {
	var newest int64
	for _, id := range store.Select("", nil) {
		if sm, ok := store.Latest(id); ok {
			newest = max(newest, sm.T)
		}
	}
	return newest
}

// retain applies -retain-raw, -retain-1m and -retain-1h against the
// watermark now: raw data and each rollup tier age out on their own
// schedules (raw days, minutely weeks, hourly years).
func (n *Node) retain(now int64) {
	for _, r := range []struct {
		step  int64 // 0: raw
		hours float64
	}{{0, n.cfg.RetainRawHours}, {timeseries.TierStep1m, n.cfg.Retain1mHours}, {timeseries.TierStep1h, n.cfg.Retain1hHours}} {
		if r.hours <= 0 {
			continue
		}
		cutoff := now - int64(r.hours*3600*1000)
		switch {
		case n.durable == nil && r.step == 0:
			n.store.Retain(cutoff)
		case n.durable == nil:
			n.store.RetainTier(r.step, cutoff)
		case r.step == 0:
			_, _ = n.durable.Retain(cutoff)
		default:
			_, _ = n.durable.RetainTier(r.step, cutoff)
		}
	}
}
