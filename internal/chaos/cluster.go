package chaos

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/metric"
	"repro/internal/node"
	"repro/internal/timeseries"
	"repro/internal/tsmodel"
)

// The cluster leg: a seeded three-node cluster (RF=2, WAL-backed) driven on
// virtual ticks through one coordinator, with one non-coordinator peer
// killed mid-campaign — its transport partitioned: dials refused, live
// connections severed — and later revived under the same identity. The leg
// holds the cluster to the invariants that make a distributed TSDB
// trustworthy under failure:
//
//	conservation   every emitted sample lands on exactly its primary once
//	               the cluster heals — hinted handoff may delay delivery,
//	               never lose or duplicate it;
//	handoff        hint queues fully drain after the heal (and the kill
//	               window actually exercised them — coverage, not luck);
//	degraded reads a query for the dead peer's series answers from a
//	               follower's replica, is MARKED partial, and is still
//	               bit-exact for fully-replicated history;
//	convergence    after a settle-and-pump every replica reports lag 0 and
//	               matches its leader sample for sample;
//	parity         after the heal, every planner function answers
//	               bit-identically (math.Float64bits) to a single store fed
//	               the same samples, with no partial markers.
//
// Everything is deterministic from cfg.Seed: dyadic values, fixed tick
// grid, seeded kill/heal window and victim choice — a failing campaign
// replays exactly from its repro string.

// legNet is a cluster leg's network: one in-memory transport per node,
// keyed by the node's id, which is also its address. It is built once, with
// every node the leg will ever start, so dials read it without a lock; a
// node is killed and healed by partitioning its transport, which refuses
// dials to it and severs its live connections.
type legNet map[string]*NetFaults

func newLegNet(ids ...string) legNet {
	ln := make(legNet, len(ids))
	for _, id := range ids {
		ln[id] = NewNetFaults()
	}
	return ln
}

func (ln legNet) dial(addr string) (net.Conn, error) {
	nf := ln[addr]
	if nf == nil {
		return nil, fmt.Errorf("chaos: no cluster transport for %s", addr)
	}
	return nf.Dialer()(addr)
}

// open starts node id — WAL-backed under dir, RF=2, chunk 8, no rollups —
// with initial membership members (ids, which double as addresses), its
// cluster traffic on its own transport and its (unused) ingest listener on
// a private one. The leg drives Flush, CheckPeers and PumpReplication
// itself, so the node is not started.
func (ln legNet) open(dir, id string, members ...string) (*node.Node, error) {
	peers := make([]string, len(members))
	for i, m := range members {
		peers[i] = m + "=" + m
	}
	n, err := node.Open(node.Config{
		Listener:        NewNetFaults().Listener(),
		ClusterListener: ln[id].Listener(),
		Dial:            ln.dial,
		ChunkSize:       8,
		DataDir:         filepath.Join(dir, id),
		Fsync:           "always",
		NodeID:          id,
		Peers:           strings.Join(peers, ","),
		RF:              2,
	})
	if err != nil {
		return nil, fmt.Errorf("open node %s: %w", id, err)
	}
	return n, nil
}

// close tears the leg down: every node, then every transport (a node that
// never started leaves its transport open).
func (ln legNet) close(nodes map[string]*node.Node) {
	for id, nf := range ln {
		if n := nodes[id]; n != nil {
			_ = n.Close()
		}
		nf.Close()
	}
}

// settleNodes pushes the nodes' buffered forwards out, then runs one
// failure-detector round on each; the ping doubles as an application
// barrier on live links. ids names the nodes in order; absent ones are
// skipped.
func settleNodes(nodes map[string]*node.Node, ids []string) {
	for _, id := range ids {
		if n := nodes[id]; n != nil {
			n.Router().Flush()
		}
	}
	for _, id := range ids {
		if n := nodes[id]; n != nil {
			n.Router().CheckPeers()
		}
	}
}

// emitTick appends one sample per series at tick t — dyadic values drawn
// from rng, on a fixed grid — to the reference model and through coord,
// then flushes and probes once (failure-detector cadence = one probe per
// tick). It returns how many samples coord accepted.
func emitTick(rng *rand.Rand, ref *tsmodel.Model, coord *cluster.Router, ids []metric.ID, t int) (int, error) {
	entries := make([]timeseries.BatchEntry, len(ids))
	for i, id := range ids {
		entries[i] = timeseries.BatchEntry{
			ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt,
			T: int64(t+1) * 1000, V: float64(rng.Intn(1<<20)) / 1024,
		}
		ref.Append(id, entries[i].T, entries[i].V)
	}
	n, err := coord.AppendBatch(entries)
	if err == nil {
		coord.Flush()
		coord.CheckPeers()
	}
	return n, err
}

// checkOwners asserts that the primary of every key under ring holds it
// bit-identically to the reference: the same count and the same sum.
func checkOwners(f *failures, what string, ring *cluster.Ring, nodes map[string]*node.Node, ref *tsmodel.Model, keys []string) {
	for _, k := range keys {
		owner := ring.Primary(k)
		st := nodes[owner].Store()
		oid, ok := st.IDForKey(k)
		if !ok {
			f.addf("%s: owner %s never saw %q", what, owner, k)
			continue
		}
		wantV, wantN, refErr := ref.Reduce(k, 0, 1<<62, string(timeseries.AggSum))
		gotV, gotN, err := st.ReducePlanned(oid, 0, 1<<62, timeseries.AggSum)
		if refErr != nil || err != nil || math.Float64bits(gotV) != math.Float64bits(wantV) || gotN != wantN {
			f.addf("%s: %q on %s = (%v,%d,%v), oracle (%v,%d,%v)", what, k, owner, gotV, gotN, err, wantV, wantN, refErr)
		}
	}
}

// checkParity asserts that r answers every key under every fn exactly:
// no error on either side (every key has samples in the window), found, not
// partial, bit-identical to the reference.
func checkParity(f *failures, r *cluster.Router, ref *tsmodel.Model, keys []string, fns []timeseries.AggFunc, from, to int64) {
	for _, fn := range fns {
		for _, k := range keys {
			wantV, wantN, refErr := ref.Reduce(k, from, to, string(fn))
			gotV, gotN, _, found, partial, err := r.Reduce(k, from, to, fn)
			switch {
			case refErr != nil || err != nil:
				f.addf("parity: %s %s(%q) err %v, oracle err %v", r.Self(), fn, k, err, refErr)
			case !found || partial:
				f.addf("parity: %s %s(%q) found=%v partial=%v after heal", r.Self(), fn, k, found, partial)
			case math.Float64bits(gotV) != math.Float64bits(wantV) || gotN != wantN:
				f.addf("parity: %s %s(%q) = (%v,%d), oracle (%v,%d)", r.Self(), fn, k, gotV, gotN, wantV, wantN)
			}
		}
	}
}

// runClusterLeg executes the leg and returns its invariant failures plus a
// fingerprint over the seed-determined end state.
func runClusterLeg(cfg Config, dir string, res *Result) (failures, string) {
	var f failures
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0DA7C125))

	ids := []string{"c1", "c2", "c3"}
	const coordinator = "c1"
	victim := ids[1+rng.Intn(2)] // never the coordinator

	nets := newLegNet(ids...)
	nodes := make(map[string]*node.Node, len(ids))
	defer nets.close(nodes)
	for _, id := range ids {
		n, err := nets.open(filepath.Join(dir, "cluster"), id, ids...)
		if err != nil {
			f.addf("%v", err)
			return f, ""
		}
		nodes[id] = n
	}

	// The series set: enough keys that every node owns some, and at least
	// one key is guaranteed to belong to the victim (the handoff coverage
	// guarantee depends on it).
	ring := nodes[coordinator].Router().Ring()
	var seriesIDs []metric.ID
	owned := map[string]int{}
	for i := 0; len(seriesIDs) < 12 || owned[victim] == 0; i++ {
		if i > 10000 {
			f.addf("could not find a victim-owned series in 10000 candidates")
			return f, ""
		}
		id := metric.ID{Name: fmt.Sprintf("chaos.cluster.%03d", i)}
		seriesIDs = append(seriesIDs, id)
		owned[ring.Primary(id.Key())]++
	}
	keys := make([]string, len(seriesIDs))
	for i, id := range seriesIDs {
		keys[i] = id.Key()
	}
	var victimKey string
	for _, k := range keys {
		if ring.Primary(k) == victim {
			victimKey = k
			break
		}
	}

	// Reference: the model (internal/tsmodel) fed the identical sample stream.
	ref := tsmodel.New(false)

	settle := func() { settleNodes(nodes, ids) }
	pumpAll := func() {
		for _, id := range ids {
			nodes[id].Router().PumpReplication()
		}
	}

	const ticks = 36
	killAt := 8 + rng.Intn(6)          // 8..13
	healAt := killAt + 6 + rng.Intn(6) // killAt+6 .. killAt+11
	probeAt := killAt + 2              // degraded read inside the window
	coord := nodes[coordinator].Router()

	emitted := 0
	for t := 0; t < ticks; t++ {
		if t == killAt {
			// Converge replication first: the degraded-read invariant is
			// about fully replicated history, so pin the replicas to the
			// pre-kill state, then cut the victim off.
			settle()
			pumpAll()
			nets[victim].SetPartition(true)
		}
		if t == healAt {
			nets[victim].SetPartition(false)
		}
		if t == probeAt && victimKey != "" {
			// Mid-outage read of the dead peer's series, over the window
			// replication had fully shipped: answered by a follower's
			// replica, marked partial, bit-exact.
			to := int64(killAt)*1000 + 1
			wantV, wantN, refErr := ref.Reduce(victimKey, 1, to, string(timeseries.AggSum))
			gotV, gotN, _, found, partial, err := coord.Reduce(victimKey, 1, to, timeseries.AggSum)
			switch {
			case refErr != nil || err != nil:
				f.addf("degraded read: ref err %v, cluster err %v", refErr, err)
			case !found || !partial:
				f.addf("degraded read: found=%v partial=%v, want a partial-marked hit", found, partial)
			case math.Float64bits(gotV) != math.Float64bits(wantV) || gotN != wantN:
				f.addf("degraded read: (%v,%d) vs replicated history (%v,%d)", gotV, gotN, wantV, wantN)
			}
		}

		n, err := emitTick(rng, ref, coord, seriesIDs, t)
		if err != nil {
			f.addf("cluster append at tick %d: %v", t, err)
			return f, ""
		}
		emitted += n
	}

	// Quiesce: drain handoff (second probe is the application barrier on
	// the revived link), then converge replication.
	settle()
	settle()
	pumpAll()

	// --- invariants ---------------------------------------------------------

	cst := coord.Stats()
	res.ClusterEmitted = uint64(emitted)
	res.ClusterForwardedEntries = cst.ForwardedEntries
	res.ClusterPartialQueries = cst.PartialQueries
	for _, ps := range cst.Peers {
		res.ClusterHintedBatches += ps.HintedBatches
		res.ClusterDrainedBatches += ps.DrainedBatches
	}

	if emitted != ticks*len(seriesIDs) {
		f.addf("coordinator accepted %d of %d emitted samples", emitted, ticks*len(seriesIDs))
	}
	// Coverage: the kill window must actually have parked and drained hints,
	// and the degraded read must have gone through the partial path.
	if res.ClusterHintedBatches == 0 || res.ClusterDrainedBatches == 0 {
		f.addf("kill window exercised no hinted handoff (hinted %d, drained %d)",
			res.ClusterHintedBatches, res.ClusterDrainedBatches)
	}
	if res.ClusterPartialQueries == 0 {
		f.addf("degraded read never took the replica-fallback path")
	}
	if pending := coord.PendingHints(); pending != 0 {
		f.addf("%d hinted batches still parked after heal and settle", pending)
	}
	if dropped := coord.DroppedHintEntries(); dropped != 0 {
		f.addf("%d entries dropped from hint queues (queue bound never approached)", dropped)
	}

	// Conservation: each sample on exactly its primary, nothing lost or
	// duplicated across the kill.
	total := 0
	for _, id := range ids {
		total += nodes[id].Store().NumSamples()
	}
	if total != emitted {
		f.addf("conservation: primaries hold %d samples, %d emitted", total, emitted)
	}
	checkOwners(&f, "conservation", ring, nodes, ref, keys)

	// Convergence: every replica caught up and sample-identical.
	for _, id := range ids {
		r := nodes[id].Router()
		for _, leader := range ring.Leaders(id) {
			if lag := r.ReplicationLag(leader); lag != 0 {
				f.addf("convergence: %s lags %s by %d bytes", id, leader, lag)
				continue
			}
			rep, ok := r.ReplicaOf(leader)
			if !ok {
				f.addf("convergence: %s holds no replica of %s", id, leader)
				continue
			}
			lst := nodes[leader].Store()
			if rep.NumSamples() != lst.NumSamples() || rep.NumSeries() != lst.NumSeries() {
				f.addf("convergence: replica of %s on %s has %d/%d samples/series, leader %d/%d",
					leader, id, rep.NumSamples(), rep.NumSeries(), lst.NumSamples(), lst.NumSeries())
			}
		}
	}

	// Post-heal parity: exact answers, no partial markers, bit-identical to
	// the reference for every planner function.
	from, to := int64(0), int64(ticks+2)*1000
	checkParity(&f, coord, ref, keys, allFns, from, to)
	for _, fn := range []timeseries.AggFunc{timeseries.AggMean, timeseries.AggSum, timeseries.AggCount} {
		wantV, wantN, err1 := ref.ReduceMerged(keys, from, to, string(fn))
		gotV, gotN, partialPeers, err2 := coord.ReduceMany(keys, from, to, fn)
		if err1 != nil || err2 != nil || len(partialPeers) != 0 {
			f.addf("parity: ReduceMany(%s) errs %v/%v partialPeers %v", fn, err1, err2, partialPeers)
			continue
		}
		if math.Float64bits(gotV) != math.Float64bits(wantV) || gotN != wantN {
			f.addf("parity: ReduceMany(%s) = (%v,%d), oracle = (%v,%d)", fn, gotV, gotN, wantV, wantN)
		}
	}

	// Fingerprint over the seed-determined end state: placement, per-node
	// content, and the handoff ledger.
	h := fnv.New64a()
	fmt.Fprintf(h, "victim=%s|killAt=%d|healAt=%d|emitted=%d", victim, killAt, healAt, emitted)
	for _, id := range ids {
		fmt.Fprintf(h, "|%s=%+v", id, nodes[id].Store().Dump())
	}
	return f, fmt.Sprintf("%016x", h.Sum64())
}
