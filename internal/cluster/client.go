package cluster

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/wire"
)

// Peer RPC: query scatter, replication pulls and topology exchange, each one
// wire.Client round trip bounded by rpcTimeout. A peer's RPC client is
// deliberately separate from the wire.Client the router uses for batch
// forwarding and pings: a slow query round trip must never stall the ingest
// path, and vice versa.
//
// wire.Client.RoundTrip redials a kept connection whose peer has hung up,
// and resends a request whose write on a kept connection failed. Every
// request here is safe to handle twice, should a failed write have reached
// the peer whole: a query (FrameQueryReq) and a topology fetch
// (FrameTopoReq) only read; a topology push (FrameTopoPush) is adopted only
// when its epoch is newer than the peer's, so a second copy is a no-op; and
// a replication pull (FrameReplPull) reads the leader's WAL from the
// position it names, or cuts a snapshot after which the record stream is
// self-contained for any number of followers
// (persist.DurableStore.ReplicationSnapshot), and the follower keeps the
// one answer it receives.

// epochMismatchError reports that a peer refused a request because it is on
// a different topology epoch. Callers resolve by exchanging topologies with
// the peer (syncTopology) and retrying.
type epochMismatchError struct {
	peerEpoch uint64
}

func (e *epochMismatchError) Error() string {
	return fmt.Sprintf("cluster: peer on topology epoch %d rejected request", e.peerEpoch)
}

func rpcQuery(c *wire.Client, q *queryRequest) (*queryResponse, error) {
	payload, err := c.RoundTrip(FrameQueryReq, encodeQueryRequest(q), FrameQueryResp, rpcTimeout)
	if err != nil {
		return nil, err
	}
	resp, err := decodeQueryResponse(q.Op, payload)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("cluster: peer query failed: %s", resp.Err)
	}
	if resp.EpochMismatch {
		return nil, &epochMismatchError{peerEpoch: resp.Epoch}
	}
	if q.Op != opSelect && len(resp.Results) != len(q.Keys) {
		return nil, fmt.Errorf("cluster: peer returned %d results for %d keys", len(resp.Results), len(q.Keys))
	}
	return resp, nil
}

func rpcReplPull(c *wire.Client, q *replPullRequest) (*replPullResponse, error) {
	payload, err := c.RoundTrip(FrameReplPull, encodeReplPullRequest(q), FrameReplResp, rpcTimeout)
	if err != nil {
		return nil, err
	}
	resp, err := decodeReplPullResponse(payload)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("cluster: replication pull failed: %s", resp.Err)
	}
	if resp.EpochMismatch {
		return nil, &epochMismatchError{peerEpoch: resp.Epoch}
	}
	return resp, nil
}

// rpcTopo fetches the peer's current topology.
func rpcTopo(c *wire.Client) (*Topology, error) {
	payload, err := c.RoundTrip(FrameTopoReq, nil, FrameTopoResp, rpcTimeout)
	if err != nil {
		return nil, err
	}
	return decodeTopology(payload)
}

// rpcTopoPush offers the peer a topology; it returns the peer's resulting
// epoch (>= t.Epoch when the push took or the peer was already newer).
func rpcTopoPush(c *wire.Client, t *Topology) (uint64, error) {
	payload, err := c.RoundTrip(FrameTopoPush, encodeTopology(t), FrameTopoAck, rpcTimeout)
	if err != nil {
		return 0, err
	}
	p := binenc.NewReader(payload)
	return p.Uvarint(), p.Err()
}
