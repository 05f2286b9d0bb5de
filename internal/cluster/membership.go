package cluster

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/timeseries"
)

// Runtime membership changes. A join or leave is an epoch transition
// executed by the changing node itself:
//
//	join:   the joiner streams the key range it will own out of each current
//	        member (snapshot bootstrap + WAL-segment tail catchup), commits
//	        the new epoch locally, pushes it to every member, and tails once
//	        more to catch appends that raced the pushes. Only ~1/N of the
//	        keyspace moves — the consistent-hash ring guarantees surviving
//	        members keep their ranges.
//	leave:  the leaver adopts the shrunk topology first (every local series
//	        now routes outward and stale forwards bounce off), pushes it to
//	        the survivors, then streams its entire store to the new owners
//	        through the ordinary forwarding path.
//
// Membership changes are operator-serialized: memberMu makes them exclusive
// on one node, and concurrent changes started on different nodes are out of
// scope (see DESIGN.md §14). Nodes that sleep through a change converge via
// epoch-mismatch rejections and the failure detector's recovery exchange.

// errTopologyChanged reports that this node adopted a newer topology while
// an operation was in flight; the operation should re-derive placement from
// the fresh topology and retry.
var errTopologyChanged = errors.New("cluster: topology changed; retry against new placement")

// resolveEpochMismatch reconciles topologies after a peer rejected a request
// for being on epoch peerEpoch: fetch and adopt the peer's topology when it
// is ahead, push ours when it is behind. It returns errTopologyChanged when
// a newer topology was adopted (placement must be recomputed), nil when the
// peer was merely stale and has been pushed forward.
func (r *Router) resolveEpochMismatch(p *peer, peerEpoch uint64) error {
	mine := r.topo.Load()
	if peerEpoch > mine.Epoch {
		t, err := p.rc.topo(rpcTimeout)
		if err != nil {
			return err
		}
		if r.applyTopology(t) {
			return errTopologyChanged
		}
		return nil
	}
	_, err := p.rc.topoPush(mine, rpcTimeout)
	return err
}

// donorState tracks the handoff stream from one current member during a
// join: its WAL cursor and the ref-table that resolves ref-addressed records
// in its shipped stream.
type donorState struct {
	id  string
	rc  *rpcClient
	rt  *persist.RefTable
	seq uint64
	off int64
}

// JoinCluster adds this node to the cluster reachable at seedAddr. The node
// must be a fresh single-member cluster (its own topology is just itself).
// The sequence:
//
//  1. fetch the seed's topology T(e) and compute T(e+1) = T(e) + self;
//  2. from every member, pull a snapshot and import only the series this
//     node owns under T(e+1), then tail the member's WAL to the writing
//     edge, importing owed entries as they appear;
//  3. adopt T(e+1) locally, push it to every member (each ack means that
//     member now forwards owed appends here), then tail each WAL once more
//     to collect appends that landed between the last tail and the ack.
//
// No appended sample is lost across the flip: an append before a member's
// ack is in that member's WAL and caught by the final tail; an append after
// the ack is forwarded here by the new topology. Samples the donors keep for
// moved keys are stale copies outside the read path (the new ring never
// routes those keys to them).
//
// Forwards that arrive while history is still streaming park behind the
// import barrier and deliver after the final tail — a live forward is always
// newer than the WAL history in flight for its series, and the store's
// monotonic append would reject that history if the forward landed first.
func (r *Router) JoinCluster(seedAddr string) error {
	r.memberMu.Lock()
	defer r.memberMu.Unlock()
	cur := r.topo.Load()
	if len(cur.Members) > 1 {
		return fmt.Errorf("cluster: node %s is already in a %d-node cluster", r.self, len(cur.Members))
	}
	selfAddr, ok := cur.Addr(r.self)
	if !ok {
		return fmt.Errorf("cluster: node %s has no advertised address", r.self)
	}
	seed := newRPCClient(seedAddr, r.cfg.Dial)
	defer seed.Close()
	t, err := seed.topo(rpcTimeout)
	if err != nil {
		return fmt.Errorf("cluster: fetch topology from seed %s: %w", seedAddr, err)
	}
	if t.Has(r.self) {
		return fmt.Errorf("cluster: node id %s already present in cluster topology (epoch %d)", r.self, t.Epoch)
	}
	next, err := t.WithJoined(Member{ID: r.self, Addr: selfAddr})
	if err != nil {
		return err
	}
	ring := next.Ring()

	// Raise the import barrier before anything can forward to us (members
	// only learn of us via the pushes below, which happen-after this), and
	// guarantee the parked queue drains on every exit path.
	r.joinMu.Lock()
	r.joinParking = true
	r.joinMu.Unlock()
	defer func() {
		r.joinMu.Lock()
		defer r.joinMu.Unlock()
		if parked := r.joinParked; len(parked) > 0 {
			r.joinParked = nil
			r.deliverForwarded(parked)
		}
		r.joinParking = false
	}()

	donors := make([]*donorState, 0, len(t.Members))
	defer func() {
		for _, d := range donors {
			d.rc.Close()
		}
	}()
	for _, m := range t.Members {
		d := &donorState{id: m.ID, rc: newRPCClient(m.Addr, r.cfg.Dial), rt: persist.NewRefTable()}
		donors = append(donors, d)
		resp, err := d.rc.replPull(&replPullRequest{WantSnapshot: true}, rpcTimeout)
		if err != nil {
			return fmt.Errorf("cluster: snapshot from %s: %w", m.ID, err)
		}
		if err := r.importOwed(ring, resp.Snapshot); err != nil {
			return fmt.Errorf("cluster: import snapshot from %s: %w", m.ID, err)
		}
		d.seq, d.off = resp.NextSeq, resp.NextOff
	}
	for _, d := range donors {
		if err := r.tailOwed(ring, d); err != nil {
			return fmt.Errorf("cluster: tail WAL of %s: %w", d.id, err)
		}
	}

	r.applyTopology(next)
	for i, m := range t.Members {
		if _, err := donors[i].rc.topoPush(next, rpcTimeout); err != nil {
			return fmt.Errorf("cluster: push epoch %d to %s: %w", next.Epoch, m.ID, err)
		}
	}
	for _, d := range donors {
		if err := r.tailOwed(ring, d); err != nil {
			return fmt.Errorf("cluster: final tail of %s: %w", d.id, err)
		}
	}
	return nil
}

// importOwed restores a donor snapshot into a scratch store and appends the
// series this node owns under ring to the local store, sample by sample in
// timestamp order.
func (r *Router) importOwed(ring *Ring, snapshot []byte) error {
	chunk, dump, err := persist.DecodeDump(snapshot)
	if err != nil {
		return err
	}
	var owed []timeseries.SeriesDump
	for _, sd := range dump {
		if ring.Primary(sd.ID.Key()) == r.self {
			owed = append(owed, sd)
		}
	}
	if len(owed) == 0 {
		return nil
	}
	scratch, err := timeseries.RestoreStore(chunk, owed)
	if err != nil {
		return err
	}
	for _, sd := range owed {
		var batch []timeseries.BatchEntry
		id, kind, unit := sd.ID, sd.Kind, sd.Unit
		if err := scratch.Each(id, math.MinInt64, math.MaxInt64, func(s metric.Sample) bool {
			batch = append(batch, timeseries.BatchEntry{ID: id, Kind: kind, Unit: unit, T: s.T, V: s.V})
			return true
		}); err != nil {
			return err
		}
		if _, err := r.appendLocal(batch, nil); err != nil {
			return err
		}
		r.handoffEntries.Add(uint64(len(batch)))
	}
	return nil
}

// tailOwed pulls a donor's WAL from its cursor to the writing edge,
// importing the entries this node owns under ring and advancing the cursor.
func (r *Router) tailOwed(ring *Ring, d *donorState) error {
	for {
		resp, err := d.rc.replPull(&replPullRequest{
			FromSeq:  d.seq,
			FromOff:  d.off,
			MaxBytes: replPullBytes,
		}, rpcTimeout)
		if err != nil {
			return err
		}
		if resp.SegmentGone {
			return fmt.Errorf("donor checkpointed past handoff cursor (seg %d)", d.seq)
		}
		for _, payload := range resp.Records {
			entries, err := persist.RecordEntries(d.rt, payload)
			if err != nil {
				return err
			}
			var owed []timeseries.BatchEntry
			for _, e := range entries {
				if ring.Primary(e.ID.Key()) == r.self {
					owed = append(owed, e)
				}
			}
			if len(owed) == 0 {
				continue
			}
			if _, err := r.appendLocal(owed, nil); err != nil {
				return err
			}
			r.handoffEntries.Add(uint64(len(owed)))
		}
		d.seq, d.off = resp.NextSeq, resp.NextOff
		if len(resp.Records) == 0 {
			return nil
		}
	}
}

// leaveMoveBatch bounds one forwarded batch of the leave handoff.
const leaveMoveBatch = 512

// LeaveCluster removes this node from the cluster: adopt the shrunk
// topology (all local appends now route outward, stale forwards re-route),
// push it to every survivor, then stream the entire local store to its new
// owners through the ordinary forwarding path and flush. It fails — and can
// simply be retried — if a survivor is unreachable or forwarded batches are
// still parked as hints afterwards.
func (r *Router) LeaveCluster() error {
	r.memberMu.Lock()
	defer r.memberMu.Unlock()
	cur := r.topo.Load()
	next, err := cur.WithLeft(r.self)
	if err != nil {
		return err
	}
	// Flip first: the write barrier in applyTopology drains in-flight local
	// appends, so the dump below is complete — everything after it forwards.
	r.applyTopology(next)
	// Survivors must adopt the shrunk topology BEFORE data moves, or a
	// receiver still on the old epoch would re-route moved entries straight
	// back here.
	for _, m := range next.Members {
		p := r.peer(m.ID)
		if p == nil {
			continue
		}
		if _, err := p.rc.topoPush(next, rpcTimeout); err != nil {
			return fmt.Errorf("cluster: push epoch %d to %s: %w", next.Epoch, m.ID, err)
		}
	}
	st := r.cfg.Store
	for _, sd := range st.Dump() {
		id, kind, unit := sd.ID, sd.Kind, sd.Unit
		var batch []timeseries.BatchEntry
		move := func() error {
			if len(batch) == 0 {
				return nil
			}
			if _, err := r.route(batch, false); err != nil {
				return err
			}
			r.handoffEntries.Add(uint64(len(batch)))
			batch = batch[:0]
			return nil
		}
		var eachErr error
		if err := st.Each(id, math.MinInt64, math.MaxInt64, func(s metric.Sample) bool {
			batch = append(batch, timeseries.BatchEntry{ID: id, Kind: kind, Unit: unit, T: s.T, V: s.V})
			if len(batch) >= leaveMoveBatch {
				if eachErr = move(); eachErr != nil {
					return false
				}
			}
			return true
		}); err != nil {
			return err
		}
		if eachErr != nil {
			return eachErr
		}
		if err := move(); err != nil {
			return err
		}
	}
	r.Flush()
	// The ping rides the same connections as the forwarded batches and peers
	// handle frames in order, so one healthy probe round is a barrier: when
	// it returns, every moved entry has been applied by its new owner. It
	// also grants hinted batches (an unreachable survivor) one drain attempt.
	r.CheckPeers()
	if n := r.PendingHints(); n > 0 {
		return fmt.Errorf("cluster: %d hinted batches still parked after leave; retry when peers are reachable", n)
	}
	return nil
}
