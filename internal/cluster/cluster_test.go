package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/timeseries"
	"repro/internal/tsmodel"
	"repro/internal/wire"
)

// --- in-memory multi-node network -----------------------------------------
//
// memNet is a tiny address-keyed fabric over net.Pipe: each node registers a
// listener under its address and the shared dialer connects pipe halves. A
// node can be marked dead (dials refused) to simulate a crash, and revived
// under the same address. net.Pipe writes are synchronous — a frame is
// consumed by the server's reader before Send returns — which, combined with
// the server handling frames on one connection sequentially, makes a ping
// round trip a full barrier: pong received means every earlier batch on that
// connection was applied.

type memNet struct {
	mu   sync.Mutex
	lns  map[string]*memLn
	dead map[string]bool
}

func newMemNet() *memNet {
	return &memNet{lns: make(map[string]*memLn), dead: make(map[string]bool)}
}

type memLn struct {
	addr   string
	ch     chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *memLn) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memLn) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *memLn) Addr() net.Addr { return memAddr(l.addr) }

type memAddr string

func (memAddr) Network() string  { return "mem" }
func (a memAddr) String() string { return string(a) }

// listen registers (or replaces, on revival) the listener for addr.
func (n *memNet) listen(addr string) *memLn {
	l := &memLn{addr: addr, ch: make(chan net.Conn, 16), closed: make(chan struct{})}
	n.mu.Lock()
	n.lns[addr] = l
	n.mu.Unlock()
	return l
}

func (n *memNet) dialer() wire.Dialer {
	return func(addr string) (net.Conn, error) {
		n.mu.Lock()
		l, dead := n.lns[addr], n.dead[addr]
		n.mu.Unlock()
		if l == nil || dead {
			return nil, fmt.Errorf("memnet: %s unreachable", addr)
		}
		client, server := net.Pipe()
		select {
		case l.ch <- server:
			return client, nil
		case <-l.closed:
			client.Close()
			server.Close()
			return nil, net.ErrClosed
		}
	}
}

func (n *memNet) setDead(addr string, dead bool) {
	n.mu.Lock()
	n.dead[addr] = dead
	n.mu.Unlock()
}

// --- test cluster ----------------------------------------------------------

type testNode struct {
	id      string
	addr    string
	store   *timeseries.Store
	durable *persist.DurableStore
	router  *Router
	srv     *Server
}

// kill severs the node from the fabric: dials are refused and its server
// (with every live connection) is torn down. The node's stores stay
// readable in-process so tests can use them as oracles.
func (n *testNode) kill(net *memNet) {
	net.setDead(n.addr, true)
	n.srv.Close()
}

// revive brings the node back under the same address with a fresh listener.
func (n *testNode) revive(net *memNet, t testing.TB) {
	t.Helper()
	net.setDead(n.addr, false)
	n.srv = NewServer(net.listen(n.addr), n.router)
}

// startCluster builds one router+server per node over a shared memNet.
// durable=true gives every node a WAL-backed store (required for
// replication); tweak, when non-nil, adjusts each node's Config.
func startCluster(t testing.TB, ids []string, rf int, durable bool, tweak func(*Config)) (map[string]*testNode, *memNet) {
	t.Helper()
	fabric := newMemNet()
	peers := make([]Peer, len(ids))
	for i, id := range ids {
		peers[i] = Peer{ID: id, Addr: "mem://" + id}
	}
	nodes := make(map[string]*testNode, len(ids))
	for _, id := range ids {
		n := &testNode{id: id, addr: "mem://" + id}
		var local timeseries.RefAppender
		if durable {
			d, err := persist.Open(t.TempDir(), persist.Options{ChunkSize: 16, Fsync: persist.FsyncAlways})
			if err != nil {
				t.Fatalf("persist.Open(%s): %v", id, err)
			}
			n.durable = d
			n.store = d.Store()
			local = d
		} else {
			n.store = timeseries.NewStore(16)
			local = n.store
		}
		cfg := Config{
			Self:        id,
			Peers:       peers,
			Replication: rf,
			Dial:        fabric.dialer(),
			Local:       local,
			Store:       n.store,
			Durable:     n.durable,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", id, err)
		}
		n.router = r
		n.srv = NewServer(fabric.listen(n.addr), r)
		nodes[id] = n
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.router.Stop()
			n.srv.Close()
			if n.durable != nil {
				_ = n.durable.Close()
			}
		}
	})
	return nodes, fabric
}

// settle flushes every router's forward buffers and runs one health-check
// round. The ping in CheckPeers rides the same connection as the batches and
// the server handles frames sequentially, so when settle returns every
// forwarded entry has been applied on its owner.
func settle(nodes map[string]*testNode) {
	for _, n := range nodes {
		n.router.Flush()
	}
	for _, n := range nodes {
		n.router.CheckPeers()
	}
}

// --- deterministic dataset ---------------------------------------------------

type dataset struct {
	keys    []string
	entries []timeseries.BatchEntry
	from    int64
	to      int64
}

// makeDataset builds nSeries series with nSamples each: irregular timestamps
// (500..1500ms apart), signed fractional values, interleaved round-robin so
// per-series time order survives any batch split.
func makeDataset(nSeries, nSamples int, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]metric.ID, nSeries)
	for i := range ids {
		ids[i] = metric.ID{
			Name:   fmt.Sprintf("cluster.metric.%02d", i),
			Labels: metric.NewLabels("host", fmt.Sprintf("h%d", i%7)),
		}
	}
	ds := &dataset{from: 0}
	ts := make([]int64, nSeries)
	for i := range ts {
		ts[i] = int64(1000 + 7*i)
	}
	for j := 0; j < nSamples; j++ {
		for i, id := range ids {
			ts[i] += int64(500 + rng.Intn(1000))
			ds.entries = append(ds.entries, timeseries.BatchEntry{
				ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt,
				T: ts[i], V: rng.Float64()*200 - 100,
			})
			if ts[i] >= ds.to {
				ds.to = ts[i] + 1
			}
		}
	}
	for _, id := range ids {
		ds.keys = append(ds.keys, id.Key())
	}
	return ds
}

// model is the reference model (internal/tsmodel) holding the dataset.
func (ds *dataset) model() *tsmodel.Model {
	m := tsmodel.New(false)
	for _, e := range ds.entries {
		m.Append(e.ID, e.T, e.V)
	}
	return m
}

// feed pushes the dataset through coordinator's router in modest batches
// (exercising the per-peer buffer/flush machinery) and settles the cluster.
func feed(t testing.TB, nodes map[string]*testNode, coordinator string, ds *dataset) {
	t.Helper()
	r := nodes[coordinator].router
	total := 0
	for i := 0; i < len(ds.entries); i += 97 {
		end := i + 97
		if end > len(ds.entries) {
			end = len(ds.entries)
		}
		n, err := r.AppendBatch(ds.entries[i:end])
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		total += n
	}
	if total != len(ds.entries) {
		t.Fatalf("coordinator accepted %d of %d entries", total, len(ds.entries))
	}
	settle(nodes)
}

// --- ingest routing ----------------------------------------------------------

func TestClusterIngestRoutesToPrimaries(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes, _ := startCluster(t, ids, 1, false, nil)
	ds := makeDataset(30, 20, 11)
	feed(t, nodes, "n1", ds)

	ring := nodes["n1"].router.Ring()
	perOwner := map[string]int{}
	for _, k := range ds.keys {
		perOwner[ring.Primary(k)]++
	}
	for _, id := range ids {
		if perOwner[id] == 0 {
			t.Fatalf("node %s owns no series; dataset too small to exercise routing", id)
		}
	}

	// Every sample lives on exactly its primary: totals conserve and no
	// non-owner ever saw the series.
	totalStored := 0
	for _, n := range nodes {
		totalStored += n.store.NumSamples()
	}
	if totalStored != len(ds.entries) {
		t.Fatalf("stored %d samples, fed %d", totalStored, len(ds.entries))
	}
	for _, k := range ds.keys {
		owner := ring.Primary(k)
		for id, n := range nodes {
			_, ok := n.store.IDForKey(k)
			if (id == owner) != ok {
				t.Fatalf("key %q: present=%v on node %s, owner is %s", k, ok, id, owner)
			}
		}
	}

	// The coordinator's ledger: local + forwarded == fed, and the remote
	// nodes' received counters account for every forwarded entry.
	st := nodes["n1"].router.Stats()
	if st.LocalEntries+st.ForwardedEntries != uint64(len(ds.entries)) {
		t.Fatalf("ledger: local %d + forwarded %d != fed %d", st.LocalEntries, st.ForwardedEntries, len(ds.entries))
	}
	var received uint64
	for _, id := range ids[1:] {
		received += nodes[id].router.Stats().ReceivedEntries
	}
	if received != st.ForwardedEntries {
		t.Fatalf("peers received %d, coordinator forwarded %d", received, st.ForwardedEntries)
	}
}

// --- distributed query parity (the acceptance gate) --------------------------

var mergeableFns = []timeseries.AggFunc{
	timeseries.AggMean, timeseries.AggSum, timeseries.AggMin,
	timeseries.AggMax, timeseries.AggCount, timeseries.AggRate,
}

var ownerRoutedFns = []timeseries.AggFunc{timeseries.AggStd, timeseries.AggP95}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestClusterQueryParityBitIdentical is the core guarantee: a 3-node cluster
// answers every planner function bit-identically (math.Float64bits) to a
// single store holding all the data — from any coordinator, over full,
// partial and empty windows, for single-series, owner-routed (std/p95) and
// scatter-merged multi-series queries.
func TestClusterQueryParityBitIdentical(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes, _ := startCluster(t, ids, 1, false, nil)
	ds := makeDataset(24, 40, 23)

	ref := ds.model()
	feed(t, nodes, "n1", ds)

	windows := []struct {
		name     string
		from, to int64
	}{
		{"full", ds.from, ds.to},
		{"mid", ds.from + (ds.to-ds.from)/5, ds.to - (ds.to-ds.from)/5},
		{"empty", ds.to + 1000, ds.to + 50000},
	}
	step := (ds.to - ds.from) / 7

	for _, w := range windows {
		for coord, n := range nodes {
			r := n.router
			for _, fn := range append(append([]timeseries.AggFunc(nil), mergeableFns...), ownerRoutedFns...) {
				for _, key := range ds.keys {
					wantV, wantN, refErr := ref.Reduce(key, w.from, w.to, string(fn))
					gotV, gotN, _, found, partial, err := r.Reduce(key, w.from, w.to, fn)
					if refErr != nil {
						// e.g. p95 over an empty window: the single store
						// errors, so the cluster must surface an error too,
						// never a made-up value.
						if err == nil {
							t.Fatalf("[%s %s %s] Reduce(%q) = (%v, %d), but single-store errors: %v",
								w.name, coord, fn, key, gotV, gotN, refErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("[%s %s %s] Reduce(%q): %v", w.name, coord, fn, key, err)
					}
					if !found || partial {
						t.Fatalf("[%s %s %s] Reduce(%q): found=%v partial=%v, want exact hit", w.name, coord, fn, key, found, partial)
					}
					if !bitsEq(gotV, wantV) || gotN != wantN {
						t.Fatalf("[%s %s %s] Reduce(%q) = (%v, %d), single-store = (%v, %d); bits %016x vs %016x",
							w.name, coord, fn, key, gotV, gotN, wantV, wantN,
							math.Float64bits(gotV), math.Float64bits(wantV))
					}

					wantPts, err := ref.Aggregate(key, w.from, w.to, step, string(fn))
					if err != nil {
						t.Fatalf("model aggregate: %v", err)
					}
					gotPts, _, found, partial, err := r.AggregateRange(key, w.from, w.to, step, fn)
					if err != nil {
						t.Fatalf("[%s %s %s] AggregateRange(%q): %v", w.name, coord, fn, key, err)
					}
					if !found || partial {
						t.Fatalf("[%s %s %s] AggregateRange(%q): found=%v partial=%v", w.name, coord, fn, key, found, partial)
					}
					comparePoints(t, fmt.Sprintf("[%s %s %s] AggregateRange(%q)", w.name, coord, fn, key), gotPts, wantPts)
				}
			}

			// Scatter-merged multi-series reductions against the model's
			// sorted-key merge.
			for _, fn := range mergeableFns {
				wantV, wantN, err := ref.ReduceMerged(ds.keys, w.from, w.to, string(fn))
				if err != nil {
					t.Fatalf("ReduceMerged: %v", err)
				}
				gotV, gotN, partialPeers, err := r.ReduceMany(ds.keys, w.from, w.to, fn)
				if err != nil {
					t.Fatalf("[%s %s %s] ReduceMany: %v", w.name, coord, fn, err)
				}
				if len(partialPeers) != 0 {
					t.Fatalf("[%s %s %s] ReduceMany degraded: %v", w.name, coord, fn, partialPeers)
				}
				if !bitsEq(gotV, wantV) || gotN != wantN {
					t.Fatalf("[%s %s %s] ReduceMany = (%v, %d), oracle = (%v, %d); bits %016x vs %016x",
						w.name, coord, fn, gotV, gotN, wantV, wantN,
						math.Float64bits(gotV), math.Float64bits(wantV))
				}
			}
		}
	}

	// Non-mergeable functions refuse to scatter instead of answering wrong.
	if _, _, _, err := nodes["n1"].router.ReduceMany(ds.keys, ds.from, ds.to, timeseries.AggStd); err == nil {
		t.Fatal("ReduceMany(std) must refuse: std does not merge across peers")
	}
	// Unknown series: found=false everywhere, no error.
	for coord, n := range nodes {
		if _, _, _, found, _, err := n.router.Reduce("no.such.series", ds.from, ds.to, timeseries.AggMean); err != nil || found {
			t.Fatalf("coordinator %s: unknown series gave found=%v err=%v", coord, found, err)
		}
	}
}

// comparePoints compares buckets in print, which tells every two float64s
// apart but NaN payloads.
func comparePoints(t *testing.T, label string, got []timeseries.AggPoint, want []tsmodel.Point) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: %v, want %v", label, got, want)
	}
}

// --- hinted handoff ----------------------------------------------------------

// entriesFor builds an in-order run of samples for one key at the given
// timestamps.
func entriesFor(key metric.ID, ts []int64, base float64) []timeseries.BatchEntry {
	out := make([]timeseries.BatchEntry, len(ts))
	for i, tt := range ts {
		out[i] = timeseries.BatchEntry{ID: key, Kind: metric.Gauge, Unit: metric.UnitWatt, T: tt, V: base + float64(i)}
	}
	return out
}

// keyOwnedBy finds a metric ID whose primary is the wanted node.
func keyOwnedBy(t *testing.T, ring *Ring, owner string) metric.ID {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := metric.ID{Name: fmt.Sprintf("handoff.metric.%d", i)}
		if ring.Primary(id.Key()) == owner {
			return id
		}
	}
	t.Fatalf("no key maps to %s", owner)
	return metric.ID{}
}

func TestClusterHintedHandoffDrainsInOrder(t *testing.T) {
	nodes, fabric := startCluster(t, []string{"n1", "n2", "n3"}, 1, false, nil)
	n1, n2 := nodes["n1"], nodes["n2"]
	id := keyOwnedBy(t, n1.router.Ring(), "n2")

	// Healthy delivery first, so the wire client is dialed and the failure
	// below exercises the broken-connection path, not first-dial.
	if _, err := n1.router.AppendBatch(entriesFor(id, []int64{1000, 2000}, 1)); err != nil {
		t.Fatal(err)
	}
	settle(nodes)
	if got := n2.store.NumSamples(); got != 2 {
		t.Fatalf("pre-kill delivery: owner has %d samples, want 2", got)
	}

	// Kill the owner. Subsequent appends park as hints, in arrival order.
	n2.kill(fabric)
	for i, ts := range [][]int64{{3000, 4000}, {5000, 6000}, {7000}} {
		if _, err := n1.router.AppendBatch(entriesFor(id, ts, float64(10*i))); err != nil {
			t.Fatal(err)
		}
		n1.router.Flush()
	}
	if hints := n1.router.PendingHints(); hints != 3 {
		t.Fatalf("pending hints = %d, want 3", hints)
	}
	n1.router.CheckPeers() // ping fails; hints must survive
	if hints := n1.router.PendingHints(); hints != 3 {
		t.Fatalf("hints after failed check = %d, want 3", hints)
	}
	var peerUp bool
	for _, ps := range n1.router.Stats().Peers {
		if ps.ID == "n2" {
			peerUp = ps.Up
		}
	}
	if peerUp {
		t.Fatal("dead peer still marked up after failed probe")
	}

	// Revive and probe: hints drain FIFO. Out-of-order replay would be
	// rejected by the store, so a full sample count proves order held.
	n2.revive(fabric, t)
	n1.router.CheckPeers()
	n1.router.CheckPeers() // second ping = barrier: the last drained batch is applied
	if hints := n1.router.PendingHints(); hints != 0 {
		t.Fatalf("hints after drain = %d, want 0", hints)
	}
	if dropped := n1.router.DroppedHintEntries(); dropped != 0 {
		t.Fatalf("dropped %d hint entries, want 0", dropped)
	}
	if got := n2.store.NumSamples(); got != 7 {
		t.Fatalf("after drain: owner has %d samples, want 7 (out-of-order replay rejected?)", got)
	}

	// Fresh traffic flows directly again.
	if _, err := n1.router.AppendBatch(entriesFor(id, []int64{8000}, 99)); err != nil {
		t.Fatal(err)
	}
	settle(nodes)
	if got := n2.store.NumSamples(); got != 8 {
		t.Fatalf("post-recovery delivery: %d samples, want 8", got)
	}
}

func TestClusterHintOverflowDropsNewest(t *testing.T) {
	nodes, fabric := startCluster(t, []string{"n1", "n2", "n3"}, 1, false, nil)
	n1, n2 := nodes["n1"], nodes["n2"]
	id := keyOwnedBy(t, n1.router.Ring(), "n2")

	// Two parks more than the queue holds: one sample each, except the
	// newest batch, which carries three.
	n2.kill(fabric)
	parks := maxHintBatches + 2
	for i := 0; i < parks; i++ {
		ts := []int64{int64(1000 * (i + 1))}
		if i == parks-1 {
			ts = append(ts, ts[0]+100, ts[0]+200)
		}
		if _, err := n1.router.AppendBatch(entriesFor(id, ts, float64(i))); err != nil {
			t.Fatal(err)
		}
		n1.router.Flush()
	}
	// Queue holds the oldest maxHintBatches batches; the two newest (four
	// entries) were dropped and counted.
	if hints := n1.router.PendingHints(); hints != maxHintBatches {
		t.Fatalf("pending hints = %d, want %d", hints, maxHintBatches)
	}
	if dropped := n1.router.DroppedHintEntries(); dropped != 4 {
		t.Fatalf("dropped entries = %d, want 4 (the two newest batches)", dropped)
	}

	n2.revive(fabric, t)
	n1.router.CheckPeers()
	n1.router.CheckPeers() // ping barrier: drained batches fully applied
	// The oldest batches (one sample each) survived.
	if got := n2.store.NumSamples(); got != maxHintBatches {
		t.Fatalf("after drain: %d samples, want %d (oldest data must survive overflow)", got, maxHintBatches)
	}
}

// --- WAL-shipping replication and failover ------------------------------------

func TestClusterReplicationAndFailover(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes, fabric := startCluster(t, ids, 2, true, nil)
	ds := makeDataset(18, 30, 31)

	ref := ds.model()
	feed(t, nodes, "n1", ds)
	for _, n := range nodes {
		n.router.PumpReplication()
	}

	// Every follower converged: lag 0 and a replica store whose contents
	// match the leader's primary store sample for sample.
	ring := nodes["n1"].router.Ring()
	for _, n := range nodes {
		for _, leader := range ring.Leaders(n.id) {
			if lag := n.router.ReplicationLag(leader); lag != 0 {
				t.Fatalf("%s lags %s by %d bytes after pump-at-quiesce", n.id, leader, lag)
			}
			rep, ok := n.router.ReplicaOf(leader)
			if !ok {
				t.Fatalf("%s holds no bootstrapped replica of %s", n.id, leader)
			}
			lst := nodes[leader].store
			if rep.NumSeries() != lst.NumSeries() || rep.NumSamples() != lst.NumSamples() {
				t.Fatalf("replica of %s on %s: %d series/%d samples, leader has %d/%d",
					leader, n.id, rep.NumSeries(), rep.NumSamples(), lst.NumSeries(), lst.NumSamples())
			}
			for _, key := range ds.keys {
				lid, ok := lst.IDForKey(key)
				if !ok {
					continue
				}
				rid, ok := rep.IDForKey(key)
				if !ok {
					t.Fatalf("replica of %s missing key %q", leader, key)
				}
				wv, wn, err := lst.ReducePlanned(lid, ds.from, ds.to, timeseries.AggSum)
				if err != nil {
					t.Fatal(err)
				}
				gv, gn, err := rep.ReducePlanned(rid, ds.from, ds.to, timeseries.AggSum)
				if err != nil {
					t.Fatal(err)
				}
				if !bitsEq(gv, wv) || gn != wn {
					t.Fatalf("replica of %s diverges on %q: (%v,%d) vs (%v,%d)", leader, key, gv, gn, wv, wn)
				}
			}
		}
	}

	// Kill n2 and query a key it owns: the coordinator falls back to n2's
	// follower's replica, marks the answer partial, and — because the
	// replica was fully caught up — still answers bit-identically.
	var victimKey string
	for _, k := range ds.keys {
		if ring.Primary(k) == "n2" {
			victimKey = k
			break
		}
	}
	if victimKey == "" {
		t.Fatal("no key owned by n2; grow the dataset")
	}
	follower := ring.Followers("n2")[0]
	nodes["n2"].kill(fabric)

	for _, coord := range []string{"n1", "n3", follower} {
		r := nodes[coord].router
		wantV, wantN, err := ref.Reduce(victimKey, ds.from, ds.to, string(timeseries.AggMean))
		if err != nil {
			t.Fatal(err)
		}
		gotV, gotN, _, found, partial, err := r.Reduce(victimKey, ds.from, ds.to, timeseries.AggMean)
		if err != nil {
			t.Fatalf("coordinator %s: failover Reduce: %v", coord, err)
		}
		if !found || !partial {
			t.Fatalf("coordinator %s: failover Reduce found=%v partial=%v, want found and partial", coord, found, partial)
		}
		if !bitsEq(gotV, wantV) || gotN != wantN {
			t.Fatalf("coordinator %s: failover Reduce = (%v,%d), want (%v,%d)", coord, gotV, gotN, wantV, wantN)
		}
	}
	// The follower served at least one of those from its local replica store.
	if rr := nodes[follower].router.Stats().ReplicaReads; rr == 0 {
		t.Fatalf("follower %s never read its replica store", follower)
	}

	// Scatter with a peer down: exact merge over surviving partials, the
	// dead owner reported — the degradation is visible, never silent.
	wantV, wantN, err := ref.ReduceMerged(ds.keys, ds.from, ds.to, string(timeseries.AggSum))
	if err != nil {
		t.Fatal(err)
	}
	gotV, gotN, partialPeers, err := nodes["n1"].router.ReduceMany(ds.keys, ds.from, ds.to, timeseries.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if len(partialPeers) != 1 || partialPeers[0] != "n2" {
		t.Fatalf("partialPeers = %v, want [n2]", partialPeers)
	}
	if !bitsEq(gotV, wantV) || gotN != wantN {
		t.Fatalf("scatter with replica fallback = (%v,%d), oracle = (%v,%d)", gotV, gotN, wantV, wantN)
	}
}

// resetReplica discards r's replica of leader, simulating a follower crash
// (replicas are memory-only); the next pump re-bootstraps from a snapshot.
func resetReplica(r *Router, leader string) bool {
	rep := r.replicaFor(leader)
	if rep == nil {
		return false
	}
	rep.mu.Lock()
	rep.store, rep.app = nil, nil
	rep.bootstrapped, rep.promoted = false, false
	rep.seq, rep.off, rep.records = 0, 0, 0
	rep.mu.Unlock()
	return true
}

func TestClusterReplicaResetRebootstrapsAndSegmentGone(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes, _ := startCluster(t, ids, 2, true, nil)
	ds := makeDataset(8, 20, 47)
	feed(t, nodes, "n1", ds)
	for _, n := range nodes {
		n.router.PumpReplication()
	}

	// Find a follower → leader edge to abuse.
	ring := nodes["n1"].router.Ring()
	var follower, leader string
	for _, n := range nodes {
		if ls := ring.Leaders(n.id); len(ls) > 0 {
			follower, leader = n.id, ls[0]
			break
		}
	}
	fr := nodes[follower].router

	// A reset replica reports lag -1 (not following) and re-bootstraps from
	// a fresh snapshot on the next pump.
	if !resetReplica(fr, leader) {
		t.Fatalf("%s should hold a replica of %s", follower, leader)
	}
	if lag := fr.ReplicationLag(leader); lag != -1 {
		t.Fatalf("reset replica lag = %d, want -1", lag)
	}
	fr.PumpReplication()
	if lag := fr.ReplicationLag(leader); lag != 0 {
		t.Fatalf("re-bootstrap lag = %d, want 0", lag)
	}
	rep, ok := fr.ReplicaOf(leader)
	if !ok || rep.NumSamples() != nodes[leader].store.NumSamples() {
		t.Fatalf("re-bootstrapped replica incomplete: ok=%v", ok)
	}

	// SegmentGone: the leader appends more and checkpoints, garbage
	// collecting the WAL segments behind the follower's cursor. The next
	// pull sees SegmentGone, drops to un-bootstrapped, and the pump after
	// that recovers via snapshot. Writing directly to the leader's durable
	// store keeps the appends off the wire (the leader is the primary for
	// whatever keys these hash to or not — irrelevant, replication ships the
	// whole WAL).
	lid := metric.ID{Name: "segment.gone.probe"}
	var lt int64 = 1
	appendLocal := func(k int) {
		var es []timeseries.BatchEntry
		for i := 0; i < k; i++ {
			es = append(es, timeseries.BatchEntry{ID: lid, Kind: metric.Gauge, Unit: metric.UnitWatt, T: lt * 1000, V: float64(lt)})
			lt++
		}
		if _, err := nodes[leader].durable.AppendBatch(es); err != nil {
			t.Fatal(err)
		}
	}
	appendLocal(64)
	if err := nodes[leader].durable.Checkpoint(); err != nil {
		t.Fatalf("leader checkpoint: %v", err)
	}
	appendLocal(8)

	fr.PumpReplication() // observes SegmentGone, un-bootstraps
	fr.PumpReplication() // re-bootstraps from the post-checkpoint snapshot
	if lag := fr.ReplicationLag(leader); lag != 0 {
		t.Fatalf("lag after SegmentGone recovery = %d, want 0", lag)
	}
	rep, ok = fr.ReplicaOf(leader)
	if !ok {
		t.Fatal("replica not bootstrapped after SegmentGone recovery")
	}
	if rep.NumSamples() != nodes[leader].store.NumSamples() {
		t.Fatalf("replica has %d samples, leader %d", rep.NumSamples(), nodes[leader].store.NumSamples())
	}
}

// --- degenerate shapes ---------------------------------------------------------

// A single-node "cluster" must behave exactly like a standalone store: the
// no-peer fast path appends locally and queries never touch the network.
func TestClusterSingleNodeIsStandalone(t *testing.T) {
	nodes, _ := startCluster(t, []string{"solo"}, 1, false, nil)
	r := nodes["solo"].router
	ds := makeDataset(5, 10, 3)

	ref := ds.model()
	if n, err := r.AppendBatch(ds.entries); err != nil || n != len(ds.entries) {
		t.Fatalf("solo append: %d, %v", n, err)
	}
	for _, key := range ds.keys {
		wantV, wantN, _ := ref.Reduce(key, ds.from, ds.to, string(timeseries.AggMean))
		gotV, gotN, _, found, partial, err := r.Reduce(key, ds.from, ds.to, timeseries.AggMean)
		if err != nil || !found || partial {
			t.Fatalf("solo Reduce(%q): %v found=%v partial=%v", key, err, found, partial)
		}
		if !bitsEq(gotV, wantV) || gotN != wantN {
			t.Fatalf("solo Reduce(%q) diverges from plain store", key)
		}
	}
	st := r.Stats()
	if len(st.Peers) != 0 || st.ForwardedEntries != 0 || st.ScatterQueries != 0 {
		t.Fatalf("solo node touched the network: %+v", st)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	store := timeseries.NewStore(16)
	base := Config{
		Self:  "n1",
		Peers: []Peer{{ID: "n1", Addr: "a"}, {ID: "n2", Addr: "b"}},
		Local: store, Store: store,
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.Self = "ghost"
	if _, err := New(bad); err == nil {
		t.Fatal("self outside peer set must be rejected")
	}
	bad = base
	bad.Peers = []Peer{{ID: "n1", Addr: "a"}, {ID: "n1", Addr: "b"}}
	if _, err := New(bad); err == nil {
		t.Fatal("duplicate peer IDs must be rejected")
	}
	bad = base
	bad.Local = nil
	if _, err := New(bad); err == nil {
		t.Fatal("nil Local must be rejected")
	}
}

// TestRouterSurfacesClosedStore: a router whose local durable store has been
// closed reports the refusal — wrapped timeseries.ErrStoreClosed — from
// AppendBatch instead of trying another way in.
func TestRouterSurfacesClosedStore(t *testing.T) {
	nodes, _ := startCluster(t, []string{"n1"}, 1, true, nil)
	n1 := nodes["n1"]
	id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n01")}
	if n, err := n1.router.AppendBatch(entriesFor(id, []int64{1000}, 1)); n != 1 || err != nil {
		t.Fatalf("append before close: %d, %v", n, err)
	}
	if err := n1.durable.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := n1.router.AppendBatch(entriesFor(id, []int64{2000}, 2)); n != 0 || !errors.Is(err, timeseries.ErrStoreClosed) {
		t.Fatalf("append after close: %d, %v; want 0, ErrStoreClosed", n, err)
	}
}

// TestServerRefusesV1Batch: a peer still sending the retired v1 batch frame
// fails at its first frame — the connection drops, the log names the frame —
// and nothing it carried is applied.
func TestServerRefusesV1Batch(t *testing.T) {
	nodes, fabric := startCluster(t, []string{"n1"}, 1, false, nil)
	var logged lockedLog
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	conn, err := fabric.dialer()(nodes["n1"].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A one-record v1 batch: agent, record count, then the record inline.
	payload := binenc.AppendUvarint(binenc.AppendString(nil, "old-agent"), 1)
	payload = binenc.AppendID(payload, metric.ID{Name: "node_power_watts"})
	payload = binenc.AppendString(append(payload, byte(metric.Gauge)), string(metric.UnitWatt))
	payload = binenc.AppendFloat(binenc.AppendVarint(binenc.AppendUvarint(payload, 1), 1000), 42)
	var frame bytes.Buffer
	if err := wire.WriteFrame(&frame, wire.FrameBatch, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame.Bytes()); err != nil { // one write: the server reads it whole
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server kept a v1 connection open: %v", err)
	}
	if line := logged.String(); !strings.Contains(line, "dropped") || !strings.Contains(line, wire.ErrBatchFrameRetired.Error()) {
		t.Fatalf("log line for the refused frame: %q", line)
	}
	if n := nodes["n1"].store.NumSamples(); n != 0 {
		t.Fatalf("a refused v1 batch applied %d samples", n)
	}
}

// TestServerRefusesRetiredFrames: frame types 24–27 (read repair) are
// reserved. A peer still sending one — here the shape of the old repair and
// replica-snapshot requests — gets no response: the connection drops and the
// log names the frame type.
func TestServerRefusesRetiredFrames(t *testing.T) {
	nodes, fabric := startCluster(t, []string{"n1"}, 1, false, nil)
	var logged lockedLog
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	// Epoch 0, leader n1, donor n1.
	payload := binenc.AppendString(binenc.AppendString(binenc.AppendUvarint(nil, 0), "n1"), "n1")
	for ft := uint8(24); ft <= 27; ft++ {
		func() {
			conn, err := fabric.dialer()(nodes["n1"].addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var frame bytes.Buffer
			if err := wire.WriteFrame(&frame, ft, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(frame.Bytes()); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("frame type %d: read %d bytes, %v; want the connection dropped unanswered", ft, n, err)
			}
			if want := fmt.Sprintf("unexpected frame type %d", ft); !strings.Contains(logged.String(), want) {
				t.Fatalf("frame type %d: log %q does not name it", ft, logged.String())
			}
		}()
	}
}

// lockedLog is a log sink the server's goroutines and the test share.
type lockedLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}
