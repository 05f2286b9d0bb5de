package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/persist"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// WAL-shipping replication. Each node follows the RF-1 nodes preceding it
// in sorted node-ID order (Ring.Leaders) and keeps one in-memory replica
// store per leader. The protocol is pull-based and idempotent to drive:
//
//	bootstrap:  pull a snapshot (a full store dump pinned to a WAL
//	            position), rebuild the replica store from it;
//	steady:     pull record payloads from the cursor, apply each with
//	            persist.ApplyRecord, advance the cursor;
//	fell behind: the leader checkpointed past our cursor (SegmentGone) —
//	            drop back to bootstrap.
//
// The replica is exact, not approximate: the WAL is the leader's total
// mutation order, so replaying it on top of the snapshot reproduces the
// leader's store byte for byte (the convergence check in the chaos campaign
// compares full dumps). A replica lives in memory only — a follower that
// restarts re-bootstraps, which the snapshot path makes cheap.

// replica is one leader's shadow store on this node.
type replica struct {
	leader string
	opts   []timeseries.Option

	mu           sync.Mutex
	store        *timeseries.Store
	rt           *persist.RefTable // opDefine bindings for the record stream
	bootstrapped bool
	promoted     bool   // read-primary lease: the leader is dead and this replica answers authoritatively
	seq          uint64 // replication cursor: WAL segment
	off          int64  // replication cursor: byte offset
	records      uint64 // records applied since bootstrap
	lag          int64  // leader-reported bytes behind, at last pull
}

func newReplica(leader string, opts []timeseries.Option) *replica {
	return &replica{leader: leader, opts: opts}
}

// readStore returns the replica store if it is ready to serve reads.
func (rep *replica) readStore() *timeseries.Store {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if !rep.bootstrapped {
		return nil
	}
	return rep.store
}

// snapshotState returns the read store together with the promotion flag and
// replication cursor — what a replica-served query response stamps so the
// coordinator can compare follower freshness and trust promoted answers.
func (rep *replica) snapshotState() (st *timeseries.Store, promoted bool, seq uint64, off int64) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if !rep.bootstrapped {
		return nil, false, 0, 0
	}
	return rep.store, rep.promoted, rep.seq, rep.off
}

func (rep *replica) stats() ReplicaStats {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	st := ReplicaStats{
		Leader:       rep.leader,
		Bootstrapped: rep.bootstrapped,
		Promoted:     rep.promoted,
		Records:      rep.records,
		LagBytes:     rep.lag,
	}
	if rep.bootstrapped && rep.store != nil {
		st.Series = rep.store.NumSeries()
		st.Samples = rep.store.NumSamples()
	}
	return st
}

// PumpReplication advances every replica until it is caught up with its
// leader or the leader is unreachable. One call after the leaders quiesce
// brings every replica to lag 0, which is what deterministic tests lean on;
// the background loop calls it periodically.
func (r *Router) PumpReplication() {
	for _, rep := range r.replicasSnapshot() {
		_ = r.pumpReplica(rep)
	}
}

// pumpReplica drives one replica's pull loop to the leader's writing edge.
// Pulls carry this node's topology epoch: a leader on a different epoch
// rejects the pull, and the resulting topology exchange converges both sides
// before the next pump retries against the (possibly re-derived) replica set.
func (r *Router) pumpReplica(rep *replica) error {
	p := r.peer(rep.leader)
	if p == nil {
		return fmt.Errorf("cluster: no peer for leader %s", rep.leader)
	}
	epoch := r.Epoch()
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if !rep.bootstrapped {
		resp, err := p.rc.replPull(&replPullRequest{Epoch: epoch, WantSnapshot: true}, rpcTimeout)
		if err != nil {
			var em *epochMismatchError
			if errors.As(err, &em) {
				return r.resolveEpochMismatch(p, em.peerEpoch)
			}
			return err
		}
		chunk, dump, err := persist.DecodeDump(resp.Snapshot)
		if err != nil {
			return err
		}
		st, err := timeseries.RestoreStore(chunk, dump, rep.opts...)
		if err != nil {
			return err
		}
		rep.store = st
		// Fresh dictionary for the fresh stream: the leader cleared its
		// WAL-ref table at the snapshot cut, so every ref used after the
		// cut is re-defined in the records we are about to pull.
		if rep.rt == nil {
			rep.rt = persist.NewRefTable()
		} else {
			rep.rt.Reset()
		}
		rep.seq, rep.off = resp.NextSeq, resp.NextOff
		rep.lag = resp.LagBytes
		rep.records = 0
		rep.bootstrapped = true
	}
	for {
		resp, err := p.rc.replPull(&replPullRequest{
			Epoch:    epoch,
			FromSeq:  rep.seq,
			FromOff:  rep.off,
			MaxBytes: replPullBytes,
		}, rpcTimeout)
		if err != nil {
			var em *epochMismatchError
			if errors.As(err, &em) {
				return r.resolveEpochMismatch(p, em.peerEpoch)
			}
			return err
		}
		if resp.SegmentGone {
			// The leader checkpointed past our cursor; restart from a
			// snapshot on the next pump.
			rep.bootstrapped = false
			rep.store = nil
			return nil
		}
		for _, payload := range resp.Records {
			if err := persist.ApplyRecord(rep.store, rep.rt, payload); err != nil {
				return err
			}
		}
		rep.records += uint64(len(resp.Records))
		rep.seq, rep.off = resp.NextSeq, resp.NextOff
		rep.lag = resp.LagBytes
		if len(resp.Records) == 0 {
			return nil // caught up to the writing edge
		}
	}
}

// ReplicaOf exposes the replica store this node keeps for leader, if it is
// bootstrapped — diagnostics and the chaos campaign's convergence check.
func (r *Router) ReplicaOf(leader string) (*timeseries.Store, bool) {
	rep := r.replicaFor(leader)
	if rep == nil {
		return nil, false
	}
	st := rep.readStore()
	return st, st != nil
}

// ReplicationLag reports the last observed byte lag behind leader, or -1 if
// this node does not follow it (or has not bootstrapped yet).
func (r *Router) ReplicationLag(leader string) int64 {
	rep := r.replicaFor(leader)
	if rep == nil {
		return -1
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if !rep.bootstrapped {
		return -1
	}
	return rep.lag
}

// --- leader side ---

// maxSnapshotPayload keeps a shipped snapshot inside one wire frame, with
// headroom for the response envelope.
const maxSnapshotPayload = wire.MaxPayload - 4096

// serveReplPull answers a follower's pull against this node's WAL. Epoch 0
// skips the topology check — the join handoff streams snapshots and WAL
// tails across epochs by design.
func (r *Router) serveReplPull(q *replPullRequest) *replPullResponse {
	if q.Epoch != 0 {
		if mine := r.Epoch(); q.Epoch != mine {
			return &replPullResponse{EpochMismatch: true, Epoch: mine}
		}
	}
	d := r.cfg.Durable
	if d == nil {
		return &replPullResponse{Err: fmt.Sprintf("node %s has no durable store; replication unavailable", r.self)}
	}
	sr := persist.NewSegmentReader(d.Dir())
	if q.WantSnapshot {
		chunk, dump, seq, off, err := d.ReplicationSnapshot()
		if err != nil {
			return &replPullResponse{Err: err.Error()}
		}
		payload := persist.EncodeDump(chunk, dump)
		if len(payload) > maxSnapshotPayload {
			return &replPullResponse{Err: fmt.Sprintf("snapshot too large to ship (%d bytes)", len(payload))}
		}
		return &replPullResponse{Snapshot: payload, NextSeq: seq, NextOff: off}
	}
	maxBytes := q.MaxBytes
	if maxBytes <= 0 || maxBytes > 8<<20 {
		maxBytes = 8 << 20
	}
	var recs [][]byte
	nextSeq, nextOff, _, err := sr.ReadFrom(q.FromSeq, q.FromOff, maxBytes, func(payload []byte) error {
		recs = append(recs, append([]byte(nil), payload...))
		return nil
	})
	if err == persist.ErrSegmentGone {
		return &replPullResponse{SegmentGone: true}
	}
	if err != nil {
		return &replPullResponse{Err: err.Error()}
	}
	lag, err := sr.TailBytes(nextSeq, nextOff)
	if err != nil {
		lag = 0
	}
	return &replPullResponse{Records: recs, NextSeq: nextSeq, NextOff: nextOff, LagBytes: lag}
}
