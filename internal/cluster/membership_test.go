package cluster

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/timeseries"
)

// --- topology value tests --------------------------------------------------

func TestTopologyTransitions(t *testing.T) {
	members := []Member{
		{ID: "n2", Addr: "mem://n2"},
		{ID: "n1", Addr: "mem://n1"},
	}
	topo, err := NewTopology(1, members, 64, 2)
	if err != nil {
		t.Fatalf("NewTopology: %v", err)
	}
	if got := topo.MemberIDs(); got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("members not sorted: %v", got)
	}

	joined, err := topo.WithJoined(Member{ID: "n3", Addr: "mem://n3"})
	if err != nil {
		t.Fatalf("WithJoined: %v", err)
	}
	if joined.Epoch != 2 || len(joined.Members) != 3 || !joined.Has("n3") {
		t.Fatalf("WithJoined: epoch %d members %v", joined.Epoch, joined.MemberIDs())
	}
	if topo.Epoch != 1 || topo.Has("n3") {
		t.Fatal("WithJoined mutated the source topology")
	}
	if _, err := topo.WithJoined(Member{ID: "n1", Addr: "mem://dup"}); err == nil {
		t.Fatal("WithJoined accepted an existing member")
	}

	left, err := joined.WithLeft("n1")
	if err != nil {
		t.Fatalf("WithLeft: %v", err)
	}
	if left.Epoch != 3 || left.Has("n1") || len(left.Members) != 2 {
		t.Fatalf("WithLeft: epoch %d members %v", left.Epoch, left.MemberIDs())
	}
	if _, err := joined.WithLeft("ghost"); err == nil {
		t.Fatal("WithLeft accepted a non-member")
	}
	solo, err := NewTopology(9, []Member{{ID: "only", Addr: "mem://only"}}, 0, 1)
	if err != nil {
		t.Fatalf("solo topology: %v", err)
	}
	if _, err := solo.WithLeft("only"); err == nil {
		t.Fatal("WithLeft removed the last member")
	}
}

func TestTopologyEncodeDecodeRoundTrip(t *testing.T) {
	topo, err := NewTopology(7, []Member{
		{ID: "alpha", Addr: "mem://alpha"},
		{ID: "beta", Addr: "mem://beta:9900"},
		{ID: "gamma", Addr: ""},
	}, 48, 2)
	if err != nil {
		t.Fatalf("NewTopology: %v", err)
	}
	got, err := decodeTopology(encodeTopology(topo))
	if err != nil {
		t.Fatalf("decodeTopology: %v", err)
	}
	if got.Epoch != topo.Epoch || got.VNodes != topo.VNodes || got.RF != topo.RF {
		t.Fatalf("round trip lost geometry: %+v vs %+v", got, topo)
	}
	if len(got.Members) != len(topo.Members) {
		t.Fatalf("round trip lost members: %v", got.MemberIDs())
	}
	for i, m := range topo.Members {
		if got.Members[i] != m {
			t.Fatalf("member %d: %+v != %+v", i, got.Members[i], m)
		}
	}
	if got.Ring() == nil || got.Ring().Primary("some.key") != topo.Ring().Primary("some.key") {
		t.Fatal("decoded topology places keys differently")
	}
	if _, err := decodeTopology([]byte{0xff}); err == nil {
		t.Fatal("decodeTopology accepted garbage")
	}
}

// --- runtime membership ----------------------------------------------------

// newSoloNode builds a fresh single-member node on an existing fabric — the
// shape a node has just before `odactl cluster join` points it at a seed.
func newSoloNode(t testing.TB, fabric *memNet, id string, durable bool) *testNode {
	t.Helper()
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
	r, err := New(Config{
		Self:        id,
		Peers:       []Peer{{ID: id, Addr: n.addr}},
		Replication: 1,
		Dial:        fabric.dialer(),
		Local:       local,
		Store:       n.store,
		Durable:     n.durable,
	})
	if err != nil {
		t.Fatalf("cluster.New(%s): %v", id, err)
	}
	n.router = r
	n.srv = NewServer(fabric.listen(n.addr), r)
	t.Cleanup(func() {
		n.router.Stop()
		n.srv.Close()
		if n.durable != nil {
			_ = n.durable.Close()
		}
	})
	return n
}

// appendAll pushes entries through r in fixed-size batches.
func appendAll(t testing.TB, r *Router, entries []timeseries.BatchEntry, batch int) {
	t.Helper()
	for i := 0; i < len(entries); i += batch {
		end := min(i+batch, len(entries))
		if _, err := r.AppendBatch(entries[i:end]); err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
	}
}

// TestClusterRuntimeJoinUnderLiveIngest is the tentpole acceptance check: a
// 3-node RF=2 cluster under live ingest accepts a 4th node. The join must
// move only ~1/N of the keyspace (all of it toward the joiner), flip every
// node to the new epoch, and lose no appended sample across the flip — every
// key's post-join owner answers bit-identically to a single store that saw
// the full dataset.
func TestClusterRuntimeJoinUnderLiveIngest(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes, fabric := startCluster(t, ids, 2, true, nil)
	ds := makeDataset(60, 30, 91)

	ref := timeseries.NewStore(16)
	if _, err := ref.AppendBatch(ds.entries); err != nil {
		t.Fatalf("reference store: %v", err)
	}

	r1 := nodes["n1"].router
	half := len(ds.entries) / 2
	appendAll(t, r1, ds.entries[:half], 97)
	settle(nodes)

	joiner := newSoloNode(t, fabric, "n4", true)
	oldRing := r1.Ring()

	// The second half of the dataset streams in WHILE the join runs.
	ingestErr := make(chan error, 1)
	go func() {
		for i := half; i < len(ds.entries); i += 53 {
			end := min(i+53, len(ds.entries))
			if _, err := r1.AppendBatch(ds.entries[i:end]); err != nil {
				ingestErr <- err
				return
			}
			r1.Flush()
		}
		ingestErr <- nil
	}()
	joinErr := joiner.router.JoinCluster("mem://n1")
	if err := <-ingestErr; err != nil {
		t.Fatalf("live ingest: %v", err)
	}
	if joinErr != nil {
		t.Fatalf("JoinCluster: %v", joinErr)
	}

	all := map[string]*testNode{"n4": joiner}
	for id, n := range nodes {
		all[id] = n
	}
	// Two settle rounds: entries a stale sender parked on an old owner may
	// take one re-route hop before reaching the joiner.
	settle(all)
	settle(all)

	for id, n := range all {
		if got := n.router.Epoch(); got != 2 {
			t.Fatalf("node %s epoch = %d, want 2", id, got)
		}
	}

	newRing := joiner.router.Ring()
	moved := 0
	for _, key := range ds.keys {
		pb, pa := oldRing.Primary(key), newRing.Primary(key)
		if pb == pa {
			continue
		}
		if pa != "n4" {
			t.Fatalf("key %q moved %s -> %s; only the joiner may gain keys", key, pb, pa)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("joiner owns no dataset key; dataset too small to exercise the handoff")
	}
	// Fair share is 1/4 of the keyspace; allow the same 50% vnode-variance
	// slack as TestRingRebalanceMovesAboutOneNth.
	if limit := len(ds.keys) * 3 / (2 * 4); moved > limit {
		t.Fatalf("join moved %d of %d keys, want <= %d (1.5x fair 1/4 share)", moved, len(ds.keys), limit)
	}
	if joiner.router.Stats().HandoffEntries == 0 {
		t.Fatal("join streamed no handoff entries")
	}

	// No sample lost: the owner of each key holds it bit-identically to the
	// single-store oracle, and a distributed query through the joiner agrees.
	for _, key := range ds.keys {
		refID, _ := ref.IDForKey(key)
		wantV, wantN, err := ref.ReducePlanned(refID, ds.from, ds.to, timeseries.AggSum)
		if err != nil {
			t.Fatalf("oracle reduce: %v", err)
		}
		owner := newRing.Primary(key)
		st := all[owner].store
		id, ok := st.IDForKey(key)
		if !ok {
			t.Fatalf("owner %s lost key %q across the epoch flip", owner, key)
		}
		gotV, gotN, err := st.ReducePlanned(id, ds.from, ds.to, timeseries.AggSum)
		if err != nil {
			t.Fatalf("owner reduce: %v", err)
		}
		if !bitsEq(gotV, wantV) || gotN != wantN {
			t.Fatalf("key %q on %s: (%v, %d) != oracle (%v, %d) — samples lost across the flip",
				key, owner, gotV, gotN, wantV, wantN)
		}

		qV, qN, _, found, partial, err := joiner.router.Reduce(key, ds.from, ds.to, timeseries.AggSum)
		if err != nil || !found || partial {
			t.Fatalf("joiner query %q: found=%v partial=%v err=%v", key, found, partial, err)
		}
		if !bitsEq(qV, wantV) || qN != wantN {
			t.Fatalf("joiner query %q = (%v, %d), oracle (%v, %d)", key, qV, qN, wantV, wantN)
		}
	}
}

// TestClusterJoinRejectsNonSoloNode: a node already in a multi-node cluster
// must refuse to join another.
func TestClusterJoinRejectsNonSoloNode(t *testing.T) {
	nodes, fabric := startCluster(t, []string{"n1", "n2"}, 1, true, nil)
	_ = fabric
	if err := nodes["n1"].router.JoinCluster("mem://n2"); err == nil {
		t.Fatal("JoinCluster accepted a node that is already clustered")
	}
}

// TestClusterLeaveStreamsDataOut: the leaver pushes the shrunk topology and
// streams its entire store to the survivors; afterwards every key is owned
// by a survivor and answers bit-identically to the oracle.
func TestClusterLeaveStreamsDataOut(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes, _ := startCluster(t, ids, 2, true, nil)
	ds := makeDataset(36, 24, 17)

	ref := timeseries.NewStore(16)
	if _, err := ref.AppendBatch(ds.entries); err != nil {
		t.Fatalf("reference store: %v", err)
	}
	feed(t, nodes, "n2", ds)

	if err := nodes["n3"].router.LeaveCluster(); err != nil {
		t.Fatalf("LeaveCluster: %v", err)
	}
	survivors := map[string]*testNode{"n1": nodes["n1"], "n2": nodes["n2"]}
	settle(survivors)
	settle(survivors)

	for id, n := range survivors {
		if got := n.router.Epoch(); got != 2 {
			t.Fatalf("survivor %s epoch = %d, want 2", id, got)
		}
	}
	newRing := nodes["n1"].router.Ring()
	for _, key := range ds.keys {
		owner := newRing.Primary(key)
		if owner == "n3" {
			t.Fatalf("key %q still placed on the departed node", key)
		}
		refID, _ := ref.IDForKey(key)
		wantV, wantN, err := ref.ReducePlanned(refID, ds.from, ds.to, timeseries.AggSum)
		if err != nil {
			t.Fatalf("oracle reduce: %v", err)
		}
		st := survivors[owner].store
		id, ok := st.IDForKey(key)
		if !ok {
			t.Fatalf("survivor %s missing key %q after leave", owner, key)
		}
		gotV, gotN, err := st.ReducePlanned(id, ds.from, ds.to, timeseries.AggSum)
		if err != nil {
			t.Fatalf("survivor reduce: %v", err)
		}
		if !bitsEq(gotV, wantV) || gotN != wantN {
			t.Fatalf("key %q on %s after leave: (%v, %d) != oracle (%v, %d)",
				key, owner, gotV, gotN, wantV, wantN)
		}
		qV, qN, _, found, partial, err := survivors["n1"].router.Reduce(key, ds.from, ds.to, timeseries.AggSum)
		if err != nil || !found || partial {
			t.Fatalf("post-leave query %q: found=%v partial=%v err=%v", key, found, partial, err)
		}
		if !bitsEq(qV, wantV) || qN != wantN {
			t.Fatalf("post-leave query %q = (%v, %d), oracle (%v, %d)", key, qV, qN, wantV, wantN)
		}
	}

	if err := newSoloNode(t, newMemNet(), "solo", false).router.LeaveCluster(); err == nil {
		t.Fatal("LeaveCluster let the last member depart")
	}
}

// TestClusterLeaderDeathPromotesAndDemotes drives the lease state machine:
// below promoteAfter (5) consecutive misses the replica answer stays
// partial; at the threshold the follower is promoted and answers
// authoritatively and bit-exactly; one clean heartbeat after the leader
// heals it demotes.
func TestClusterLeaderDeathPromotesAndDemotes(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes, fabric := startCluster(t, ids, 2, true, nil)
	ds := makeDataset(24, 24, 11)
	ref := timeseries.NewStore(16)
	if _, err := ref.AppendBatch(ds.entries); err != nil {
		t.Fatalf("reference store: %v", err)
	}
	feed(t, nodes, "n3", ds)
	for i := 0; i < 3; i++ {
		for _, n := range nodes {
			n.router.PumpReplication()
		}
	}

	ring := nodes["n1"].router.Ring()
	victim := "n2"
	var follower string
	for _, f := range ring.Followers(victim) {
		if f != victim {
			follower = f
			break
		}
	}
	var coordID string
	for _, id := range ids {
		if id != victim && id != follower {
			coordID = id
		}
	}
	var key string
	for _, k := range ds.keys {
		if ring.Primary(k) == victim {
			key = k
			break
		}
	}
	if follower == "" || coordID == "" || key == "" {
		t.Fatalf("bad geometry: follower=%q coord=%q key=%q", follower, coordID, key)
	}
	if lag := nodes[follower].router.ReplicationLag(victim); lag != 0 {
		t.Fatalf("follower replica lag %d before kill, want 0", lag)
	}
	refID, _ := ref.IDForKey(key)
	wantV, wantN, err := ref.ReducePlanned(refID, ds.from, ds.to, timeseries.AggSum)
	if err != nil {
		t.Fatalf("oracle reduce: %v", err)
	}

	promotedOn := func(r *Router) bool {
		for _, rs := range r.Stats().Replicas {
			if rs.Leader == victim {
				return rs.Promoted
			}
		}
		t.Fatalf("node holds no replica of %s", victim)
		return false
	}

	nodes[victim].kill(fabric)
	coord := nodes[coordID].router
	fr := nodes[follower].router

	// Misses 1 to 4: down, then suspect, never promoted — answers are
	// flagged partial.
	for i := 0; i < 4; i++ {
		fr.CheckPeers()
		if promotedOn(fr) {
			t.Fatalf("follower promoted after %d misses, threshold is 5", i+1)
		}
		gotV, gotN, _, found, partial, err := coord.Reduce(key, ds.from, ds.to, timeseries.AggSum)
		if err != nil || !found {
			t.Fatalf("fallback query: found=%v err=%v", found, err)
		}
		if !partial {
			t.Fatalf("replica answer below the lease threshold must be partial (miss %d)", i+1)
		}
		if !bitsEq(gotV, wantV) || gotN != wantN {
			t.Fatalf("fallback query = (%v, %d), oracle (%v, %d)", gotV, gotN, wantV, wantN)
		}
	}

	// Miss 5 crosses promoteAfter: the follower holds the read lease and its
	// answer is authoritative.
	fr.CheckPeers()
	if !promotedOn(fr) {
		t.Fatal("follower not promoted after promoteAfter consecutive misses")
	}
	if fr.Stats().Promotions == 0 {
		t.Fatal("promotions counter did not advance")
	}
	gotV, gotN, _, found, partial, err := coord.Reduce(key, ds.from, ds.to, timeseries.AggSum)
	if err != nil || !found {
		t.Fatalf("promoted query: found=%v err=%v", found, err)
	}
	if partial {
		t.Fatal("promoted follower's answer must not be partial")
	}
	if !bitsEq(gotV, wantV) || gotN != wantN {
		t.Fatalf("promoted query = (%v, %d), oracle (%v, %d)", gotV, gotN, wantV, wantN)
	}

	// Heal: one clean heartbeat demotes and the primary serves again.
	nodes[victim].revive(fabric, t)
	fr.CheckPeers()
	if promotedOn(fr) {
		t.Fatal("follower still promoted after the leader healed")
	}
	gotV, gotN, _, found, partial, err = coord.Reduce(key, ds.from, ds.to, timeseries.AggSum)
	if err != nil || !found || partial {
		t.Fatalf("post-heal query: found=%v partial=%v err=%v", found, partial, err)
	}
	if !bitsEq(gotV, wantV) || gotN != wantN {
		t.Fatalf("post-heal query = (%v, %d), oracle (%v, %d)", gotV, gotN, wantV, wantN)
	}
}

// TestClusterEpochMismatchConvergence: a node that slept through an epoch
// flip converges through all three recovery channels — a stale SERVER is
// pushed forward after rejecting a newer request, a stale COORDINATOR adopts
// the newer topology its peer rejected it with (errTopologyChanged retry),
// and a node that was unreachable during the flip syncs on its first healthy
// heartbeat (anti-entropy).
func TestClusterEpochMismatchConvergence(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes, fabric := startCluster(t, ids, 1, false, nil)
	ds := makeDataset(30, 16, 3)
	ref := timeseries.NewStore(16)
	if _, err := ref.AppendBatch(ds.entries); err != nil {
		t.Fatalf("reference store: %v", err)
	}
	feed(t, nodes, "n1", ds)

	// bump derives a same-membership topology with a larger epoch (a ghost
	// joins and immediately leaves), so staleness can be staged without
	// moving any data.
	bump := func(cur *Topology) *Topology {
		g, err := cur.WithJoined(Member{ID: "zz-ghost", Addr: "mem://zz-ghost"})
		if err != nil {
			t.Fatalf("bump join: %v", err)
		}
		next, err := g.WithLeft("zz-ghost")
		if err != nil {
			t.Fatalf("bump leave: %v", err)
		}
		return next
	}
	keyOn := func(owner string) string {
		for _, k := range ds.keys {
			if nodes["n1"].router.Ring().Primary(k) == owner {
				return k
			}
		}
		t.Fatalf("no dataset key owned by %s", owner)
		return ""
	}
	exact := func(r *Router, key string) {
		t.Helper()
		refID, _ := ref.IDForKey(key)
		wantV, wantN, err := ref.ReducePlanned(refID, ds.from, ds.to, timeseries.AggSum)
		if err != nil {
			t.Fatalf("oracle reduce: %v", err)
		}
		gotV, gotN, _, found, partial, err := r.Reduce(key, ds.from, ds.to, timeseries.AggSum)
		if err != nil || !found || partial {
			t.Fatalf("query across epoch skew: found=%v partial=%v err=%v", found, partial, err)
		}
		if !bitsEq(gotV, wantV) || gotN != wantN {
			t.Fatalf("query = (%v, %d), oracle (%v, %d)", gotV, gotN, wantV, wantN)
		}
	}

	// Stage 1 — stale server: n1 and n2 move ahead, n3 stays at epoch 1. A
	// query from n1 to a key n3 owns is rejected, n1 pushes its topology, the
	// retry against the same owner succeeds.
	e2 := bump(nodes["n1"].router.Topology())
	nodes["n1"].router.applyTopology(e2)
	nodes["n2"].router.applyTopology(e2)
	if got := nodes["n3"].router.Epoch(); got != 1 {
		t.Fatalf("n3 epoch = %d before convergence, want 1", got)
	}
	exact(nodes["n1"].router, keyOn("n3"))
	if got := nodes["n3"].router.Epoch(); got != e2.Epoch {
		t.Fatalf("stale server not pushed forward: n3 epoch %d, want %d", got, e2.Epoch)
	}

	// Stage 2 — stale coordinator: n1 and n2 move ahead again; a query FROM
	// n3 is rejected by the owner, n3 fetches and adopts the newer topology
	// and the public API retries transparently.
	e3 := bump(e2)
	nodes["n1"].router.applyTopology(e3)
	nodes["n2"].router.applyTopology(e3)
	exact(nodes["n3"].router, keyOn("n1"))
	if got := nodes["n3"].router.Epoch(); got != e3.Epoch {
		t.Fatalf("stale coordinator did not adopt: n3 epoch %d, want %d", got, e3.Epoch)
	}

	// Stage 3 — anti-entropy: n1 flips while unreachable from n3; on the
	// first healthy heartbeat after the heal, n3 syncs topologies.
	e4 := bump(e3)
	nodes["n1"].kill(fabric)
	nodes["n3"].router.CheckPeers() // accrue a miss against n1
	nodes["n1"].router.applyTopology(e4)
	nodes["n2"].router.applyTopology(e4)
	nodes["n1"].revive(fabric, t)
	nodes["n3"].router.CheckPeers() // recovery heartbeat exchanges topologies
	if got := nodes["n3"].router.Epoch(); got != e4.Epoch {
		t.Fatalf("heartbeat anti-entropy did not converge: n3 epoch %d, want %d", got, e4.Epoch)
	}
}

// TestClusterFallbackAnswersFromFreshestFollower: with RF=3, two followers
// hold replicas of a dead owner at different cursors. A query coordinated by
// either follower answers from the freshest replica, flagged partial; the
// stale replica is left as it is, and once the leader heals it catches up
// from the leader alone.
func TestClusterFallbackAnswersFromFreshestFollower(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes, fabric := startCluster(t, ids, 3, true, nil)
	ds := makeDataset(18, 20, 5)
	feed(t, nodes, "n1", ds)
	for i := 0; i < 3; i++ {
		for _, n := range nodes {
			n.router.PumpReplication()
		}
	}

	ring := nodes["n1"].router.Ring()
	victim := "n2"
	var followers []string
	for _, f := range ring.Followers(victim) {
		if f != victim {
			followers = append(followers, f)
		}
	}
	if len(followers) != 2 {
		t.Fatalf("want 2 followers of %s, got %v", victim, followers)
	}
	fresh, stale := followers[0], followers[1]
	for _, f := range followers {
		if lag := nodes[f].router.ReplicationLag(victim); lag != 0 {
			t.Fatalf("follower %s lag %d before divergence, want 0", f, lag)
		}
	}
	var key string
	for _, k := range ds.keys {
		if ring.Primary(k) == victim {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatalf("no dataset key owned by %s", victim)
	}

	// Divergence: extra samples land on the victim, then only ONE follower
	// pumps before the victim dies.
	vID, _ := nodes[victim].store.IDForKey(key)
	extra := make([]timeseries.BatchEntry, 6)
	for i := range extra {
		extra[i] = timeseries.BatchEntry{
			ID: vID, Kind: metric.Gauge, Unit: metric.UnitWatt,
			T: ds.to + int64(1000*(i+1)), V: float64(i) + 0.25,
		}
	}
	if _, err := nodes[victim].durable.AppendBatch(extra); err != nil {
		t.Fatalf("extra append: %v", err)
	}
	extraTo := extra[len(extra)-1].T + 1
	nodes[fresh].router.PumpReplication()
	nodes[victim].kill(fabric)

	ref := timeseries.NewStore(16)
	if _, err := ref.AppendBatch(ds.entries); err != nil {
		t.Fatalf("reference store: %v", err)
	}
	if _, err := ref.AppendBatch(extra); err != nil {
		t.Fatalf("reference extra: %v", err)
	}
	refID, _ := ref.IDForKey(key)
	wantV, wantN, err := ref.ReducePlanned(refID, ds.from, extraTo, timeseries.AggSum)
	if err != nil {
		t.Fatalf("oracle reduce: %v", err)
	}

	// Whichever follower coordinates, the freshest replica answers.
	for _, coord := range []string{fresh, stale} {
		gotV, gotN, _, found, partial, err := nodes[coord].router.Reduce(key, ds.from, extraTo, timeseries.AggSum)
		if err != nil || !found {
			t.Fatalf("coordinator %s: fallback query: found=%v err=%v", coord, found, err)
		}
		if !partial {
			t.Fatalf("coordinator %s: unpromoted replica answer must be partial", coord)
		}
		if !bitsEq(gotV, wantV) || gotN != wantN {
			t.Fatalf("coordinator %s: query answered from a stale replica: (%v, %d), want freshest (%v, %d)",
				coord, gotV, gotN, wantV, wantN)
		}
	}

	// The stale replica was not back-filled: it still lacks the extra samples.
	st, ok := nodes[stale].router.ReplicaOf(victim)
	if !ok {
		t.Fatalf("%s holds no replica of %s", stale, victim)
	}
	sID, ok := st.IDForKey(key)
	if !ok {
		t.Fatalf("stale replica lost key %q", key)
	}
	if _, rN, err := st.ReducePlanned(sID, ds.from, extraTo, timeseries.AggSum); err != nil || rN != wantN-len(extra) {
		t.Fatalf("stale replica holds %d samples (%v), want %d: a query back-filled it", rN, err, wantN-len(extra))
	}

	// Heal: the stale replica catches up from its leader to lag 0.
	nodes[victim].revive(fabric, t)
	nodes[stale].router.CheckPeers()
	for i := 0; i < 3; i++ {
		nodes[stale].router.PumpReplication()
	}
	if lag := nodes[stale].router.ReplicationLag(victim); lag != 0 {
		t.Fatalf("stale replica lag %d after heal, want 0", lag)
	}
	st, _ = nodes[stale].router.ReplicaOf(victim)
	sID, _ = st.IDForKey(key)
	if rV, rN, err := st.ReducePlanned(sID, ds.from, extraTo, timeseries.AggSum); err != nil || !bitsEq(rV, wantV) || rN != wantN {
		t.Fatalf("healed replica = (%v, %d, %v), want (%v, %d)", rV, rN, err, wantV, wantN)
	}
}

// TestHintOverflowAccounting pins the hint_saved_bytes contract on both
// overflow paths of a full hint queue: a non-front overflow drops the
// INCOMING batch (never packed, so savings are untouched) while a front
// overflow drops the newest QUEUED batch and must give exactly its savings
// back.
func TestHintOverflowAccounting(t *testing.T) {
	p := &peer{}
	id := metric.ID{
		Name:   "hint.accounting.metric.with.a.deliberately.long.name",
		Labels: metric.NewLabels("host", "h1"),
	}
	mk := func(n int, t0 int64) []timeseries.BatchEntry {
		out := make([]timeseries.BatchEntry, n)
		for i := range out {
			out[i] = timeseries.BatchEntry{ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, T: t0 + int64(i), V: float64(i)}
		}
		return out
	}
	// Every interned entry after the first saves key+unit+kind against the
	// 4-byte ref.
	perEntry := uint64(len(id.Key()) + len(metric.UnitWatt) + 1 - 4)
	// Empty placeholder batches leave room for exactly two more.
	p.hints = make([]hintBatch, maxHintBatches-2)

	p.hintLocked(mk(5, 0), false) // batch A: defines the series, 4 entries save
	if got, want := p.hintSavedBytes, 4*perEntry; got != want {
		t.Fatalf("after batch A: saved %d, want %d", got, want)
	}
	p.hintLocked(mk(5, 100), false) // batch B: all 5 entries save
	if got, want := p.hintSavedBytes, 9*perEntry; got != want {
		t.Fatalf("after batch B: saved %d, want %d", got, want)
	}

	// Queue full + non-front arrival: the incoming batch drops before it is
	// ever packed, so the savings gauge must not move.
	p.hintLocked(mk(5, 200), false)
	if got, want := p.hintSavedBytes, 9*perEntry; got != want {
		t.Fatalf("non-front overflow changed savings: %d, want %d", got, want)
	}
	if p.droppedHintEntries != 5 {
		t.Fatalf("dropped entries = %d, want 5", p.droppedHintEntries)
	}

	// Queue full + front arrival (a failed send): batch B (newest queued)
	// drops and its 5*perEntry savings are reversed; the front batch packs
	// with the series already interned, adding 5*perEntry of its own.
	p.hintLocked(mk(5, 300), true)
	if got, want := p.hintSavedBytes, 9*perEntry; got != want {
		t.Fatalf("front overflow drop did not reverse the dropped batch's savings: %d, want %d", got, want)
	}
	if p.droppedHintEntries != 10 {
		t.Fatalf("dropped entries = %d, want 10", p.droppedHintEntries)
	}
	if len(p.hints) != maxHintBatches {
		t.Fatalf("hint queue length %d, want %d", len(p.hints), maxHintBatches)
	}
	// FIFO contract: the failed send is OLDER than everything queued, so it
	// must sit at the front.
	if p.hints[0].entries[0].t != 300 {
		t.Fatalf("front-parked batch not at queue head (t=%d)", p.hints[0].entries[0].t)
	}
}
