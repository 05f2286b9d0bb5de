package cluster

import (
	"fmt"

	"repro/internal/persist"
	"repro/internal/timeseries"
)

// Read repair. When a scatter query falls back to an owner's followers and
// their replication cursors disagree, the coordinator back-fills every stale
// follower from the freshest one: the stale node pulls a snapshot of the
// fresh node's replica store (FrameRepSnapReq) and installs it, cursor and
// all. The repaired replica keeps serving reads while the leader stays dead;
// once the leader heals, the repair flag forces a clean re-bootstrap from
// the leader's WAL (the repaired stream's ref-table bindings are unknown, so
// tailing the leader's records onto it would be unsound).

// cursorBehind reports whether cursor a trails cursor b.
func cursorBehind(aSeq uint64, aOff int64, bSeq uint64, bOff int64) bool {
	if aSeq != bSeq {
		return aSeq < bSeq
	}
	return aOff < bOff
}

// repairReplica back-fills staleID's replica of leader from freshID's. When
// the stale node is this one, it pulls the snapshot itself; otherwise it
// asks the stale peer to pull from the fresh peer.
func (r *Router) repairReplica(leader, staleID, freshID string) {
	epoch := r.Epoch()
	if staleID == r.self {
		fp := r.peer(freshID)
		if fp == nil {
			return
		}
		snap, err := fp.rc.repSnap(&repSnapRequest{Epoch: epoch, Leader: leader}, rpcTimeout)
		if err != nil {
			return
		}
		if r.installReplicaSnapshot(leader, snap) {
			r.readRepairs.Add(1)
		}
		return
	}
	sp := r.peer(staleID)
	if sp == nil {
		return
	}
	resp, err := sp.rc.repair(&repairRequest{Epoch: epoch, Leader: leader, From: freshID}, rpcTimeout)
	if err == nil && resp.Repaired {
		r.readRepairs.Add(1)
	}
}

// serveRepair handles a coordinator's instruction to back-fill our replica
// of q.Leader from peer q.From.
func (r *Router) serveRepair(q *repairRequest) *repairResponse {
	if q.Epoch != 0 {
		if mine := r.Epoch(); q.Epoch != mine {
			return &repairResponse{EpochMismatch: true, Epoch: mine}
		}
	}
	fp := r.peer(q.From)
	if fp == nil {
		return &repairResponse{Err: fmt.Sprintf("node %s has no peer %s to repair from", r.self, q.From)}
	}
	snap, err := fp.rc.repSnap(&repSnapRequest{Epoch: q.Epoch, Leader: q.Leader}, rpcTimeout)
	if err != nil {
		return &repairResponse{Err: err.Error()}
	}
	if !r.installReplicaSnapshot(q.Leader, snap) {
		return &repairResponse{Err: fmt.Sprintf("node %s refused replica snapshot of %s (not stale, or no such replica)", r.self, q.Leader)}
	}
	return &repairResponse{Repaired: true}
}

// serveRepSnap dumps this node's replica of q.Leader, pinned to its
// replication cursor, for a stale follower to install.
func (r *Router) serveRepSnap(q *repSnapRequest) *repSnapResponse {
	if q.Epoch != 0 {
		if mine := r.Epoch(); q.Epoch != mine {
			return &repSnapResponse{EpochMismatch: true, Epoch: mine}
		}
	}
	rep := r.replicaFor(q.Leader)
	if rep == nil {
		return &repSnapResponse{Err: fmt.Sprintf("node %s holds no replica of %s", r.self, q.Leader)}
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if !rep.bootstrapped {
		return &repSnapResponse{Err: fmt.Sprintf("replica of %s on %s not bootstrapped", q.Leader, r.self)}
	}
	payload := persist.EncodeDump(rep.store.ChunkSize(), rep.store.Dump())
	if len(payload) > maxSnapshotPayload {
		return &repSnapResponse{Err: fmt.Sprintf("replica snapshot too large to ship (%d bytes)", len(payload))}
	}
	return &repSnapResponse{
		Snapshot: payload,
		Seq:      rep.seq,
		Off:      rep.off,
		Records:  rep.records,
		Lag:      rep.lag,
	}
}

// installReplicaSnapshot replaces our replica of leader with a fellow
// follower's snapshot, provided the donor's cursor is actually ahead.
func (r *Router) installReplicaSnapshot(leader string, snap *repSnapResponse) bool {
	rep := r.replicaFor(leader)
	if rep == nil {
		return false
	}
	chunk, dump, err := persist.DecodeDump(snap.Snapshot)
	if err != nil {
		return false
	}
	st, err := timeseries.RestoreStore(chunk, dump, rep.opts...)
	if err != nil {
		return false
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.bootstrapped && !cursorBehind(rep.seq, rep.off, snap.Seq, snap.Off) {
		return false // we are at least as fresh; nothing to repair
	}
	rep.store = st
	rep.rt = nil
	rep.seq, rep.off = snap.Seq, snap.Off
	rep.records = snap.Records
	rep.lag = snap.Lag
	rep.bootstrapped = true
	rep.repaired = true
	return true
}
