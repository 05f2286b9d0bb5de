package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/metric"
	"repro/internal/node"
	"repro/internal/timeseries"
	"repro/internal/tsmodel"
)

// The membership leg: runtime topology change under fire. A seeded
// three-node cluster (RF=2, WAL-backed) ingests on a fixed tick grid while
// a FOURTH node joins mid-campaign — streaming its owed key range out of
// the members and committing the next epoch — and, a few ticks later, one
// of the original non-coordinator members is killed and eventually revived.
// The leg holds the epoch transition to the invariants DESIGN.md §14
// promises:
//
//	epoch       every node (joiner included) lands on the post-join epoch;
//	movement    only the joiner gains keys, and no more than 1.5x its fair
//	            1/N share of the keyspace moves;
//	handoff     the join actually streamed history (coverage, not luck);
//	durability  after the heal, every key's post-join primary holds it
//	            bit-identically to a single store fed the same samples —
//	            nothing lost across the flip OR the kill window;
//	parity      reductions through the coordinator and through the joiner
//	            answer exact (no partial marker), bit-equal to the oracle.
//
// Everything derives from cfg.Seed: join/kill/heal ticks, the victim, the
// sample values. A failing campaign replays exactly from its repro string.

// runMembershipLeg executes the leg and returns its invariant failures plus
// a fingerprint over the seed-determined end state.
func runMembershipLeg(cfg Config, dir string, res *Result) (failures, string) {
	var f failures
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0DA2026))

	ids := []string{"m1", "m2", "m3"}
	const coordinator = "m1"
	const joiner = "m4"
	victim := ids[1+rng.Intn(2)] // original member, never the coordinator

	members := []string{"m1", "m2", "m3", joiner}
	nets := newLegNet(members...)
	nodes := make(map[string]*node.Node, len(ids)+1)
	defer nets.close(nodes)
	for _, id := range ids {
		n, err := nets.open(filepath.Join(dir, "membership"), id, ids...)
		if err != nil {
			f.addf("%v", err)
			return f, ""
		}
		nodes[id] = n
	}

	// Series set: every original node owns at least one key under the
	// pre-join ring, and the post-join ring hands at least one to the
	// joiner — the movement and durability invariants need real coverage.
	oldRing := nodes[coordinator].Router().Ring()
	newRing, err := cluster.NewRing(members, oldRing.VNodes(), 2)
	if err != nil {
		f.addf("preview post-join ring: %v", err)
		return f, ""
	}
	var seriesIDs []metric.ID
	ownedOld := map[string]int{}
	ownedNew := map[string]int{}
	for i := 0; len(seriesIDs) < 16 || ownedOld["m2"] == 0 || ownedOld["m3"] == 0 || ownedNew[joiner] == 0; i++ {
		if i > 10000 {
			f.addf("could not cover all owners in 10000 candidate series")
			return f, ""
		}
		id := metric.ID{Name: fmt.Sprintf("chaos.membership.%03d", i)}
		seriesIDs = append(seriesIDs, id)
		ownedOld[oldRing.Primary(id.Key())]++
		ownedNew[newRing.Primary(id.Key())]++
	}
	keys := make([]string, len(seriesIDs))
	for i, id := range seriesIDs {
		keys[i] = id.Key()
	}

	ref := tsmodel.New(false) // the reference model, fed the identical sample stream
	settle := func() { settleNodes(nodes, members) }

	const ticks = 30
	joinAt := 6 + rng.Intn(4)          // 6..9
	killAt := joinAt + 3 + rng.Intn(4) // joinAt+3 .. joinAt+6
	healAt := killAt + 5 + rng.Intn(4) // killAt+5 .. killAt+8
	coord := nodes[coordinator].Router()

	emitted := 0
	for t := 0; t < ticks; t++ {
		if t == joinAt {
			n, err := nets.open(filepath.Join(dir, "membership"), joiner, joiner)
			if err != nil {
				f.addf("%v", err)
				return f, ""
			}
			nodes[joiner] = n
			if err := n.Router().JoinCluster(coordinator); err != nil {
				f.addf("JoinCluster at tick %d: %v", t, err)
				return f, ""
			}
		}
		if t == killAt {
			settle() // moved entries must land before the victim's links die
			nets[victim].SetPartition(true)
		}
		if t == healAt {
			nets[victim].SetPartition(false)
		}

		n, err := emitTick(rng, ref, coord, seriesIDs, t)
		if err != nil {
			f.addf("cluster append at tick %d: %v", t, err)
			return f, ""
		}
		emitted += n
	}

	// Quiesce: the revived victim needs one probe round to drain hints, a
	// second as the application barrier on the healed links.
	settle()
	settle()

	// --- invariants ---------------------------------------------------------

	jst := nodes[joiner].Router().Stats()
	res.MembershipEpoch = jst.Epoch
	res.MembershipHandoffEntries = jst.HandoffEntries
	for id, n := range nodes {
		if got := n.Router().Epoch(); got != 2 {
			f.addf("epoch: node %s on %d after the join, want 2", id, got)
		}
	}

	moved := 0
	for _, k := range keys {
		pb, pa := oldRing.Primary(k), newRing.Primary(k)
		if pb == pa {
			continue
		}
		if pa != joiner {
			f.addf("movement: key %q moved %s -> %s; only the joiner may gain keys", k, pb, pa)
		}
		moved++
	}
	res.MembershipMovedKeys = moved
	if moved == 0 {
		f.addf("movement: joiner owns no key; the handoff was never exercised")
	}
	if limit := len(keys) * 3 / (2 * 4); moved > limit {
		f.addf("movement: %d of %d keys moved, want <= %d (1.5x fair 1/4 share)", moved, len(keys), limit)
	}
	if jst.HandoffEntries == 0 {
		f.addf("handoff: join streamed no entries")
	}
	if pending := coord.PendingHints(); pending != 0 {
		f.addf("handoff: %d hinted batches still parked after heal and settle", pending)
	}

	// Durability: the post-join primary of every key holds it bit-exactly.
	// (Donors keep stale copies of moved keys outside the read path, so the
	// check is per-key on the owner, not a total.)
	checkOwners(&f, "durability", newRing, nodes, ref, keys)

	// Parity through both coordinators that matter: the original one and
	// the joiner.
	from, to := int64(0), int64(ticks+2)*1000
	for _, r := range []*cluster.Router{coord, nodes[joiner].Router()} {
		checkParity(&f, r, ref, keys, []timeseries.AggFunc{timeseries.AggSum}, from, to)
	}

	h := fnv.New64a()
	fmt.Fprintf(h, "victim=%s|joinAt=%d|killAt=%d|healAt=%d|emitted=%d|moved=%d",
		victim, joinAt, killAt, healAt, emitted, moved)
	for _, id := range members {
		fmt.Fprintf(h, "|%s=%+v", id, nodes[id].Store().Dump())
	}
	return f, fmt.Sprintf("%016x", h.Sum64())
}
