package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/binenc"
	"repro/internal/wire"
)

// rpcClient is a request/response connection to one peer, used for query
// scatter and replication pulls. It is deliberately separate from the
// wire.Client the router uses for batch forwarding and pings: a slow query
// round trip must never stall the ingest path, and vice versa.
//
// Dialing is lazy (a peer may be down when the router starts) and a failed
// round trip closes the connection immediately — on in-memory pipe
// transports that unblocks the server side, and on TCP it guarantees the
// next call starts from a clean dial instead of reading a stale response.
type rpcClient struct {
	mu   sync.Mutex
	addr string
	dial wire.Dialer

	conn net.Conn
	br   *bufio.Reader
}

func newRPCClient(addr string, dial wire.Dialer) *rpcClient {
	if dial == nil {
		dial = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	return &rpcClient{addr: addr, dial: dial}
}

func (c *rpcClient) ensureLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, err := c.dial(c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	return nil
}

func (c *rpcClient) dropLocked() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
		c.br = nil
	}
}

// roundTrip sends one frame and reads one response frame, bounding the
// whole exchange with timeout (0 = no deadline). Any error tears the
// connection down; the next call redials. A request-write failure on a
// conn cached from an earlier call redials and retries once — the peer may
// have restarted since (no response was in flight, so the retry is safe).
func (c *rpcClient) roundTrip(reqType uint8, payload []byte, wantType uint8, timeout time.Duration) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cached := c.conn != nil
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	send := func() error {
		if err := c.ensureLocked(); err != nil {
			return err
		}
		if err := c.conn.SetDeadline(deadline); err != nil {
			c.dropLocked()
			return err
		}
		if err := wire.WriteFrame(c.conn, reqType, payload); err != nil {
			c.dropLocked()
			return err
		}
		return nil
	}
	if err := send(); err != nil {
		if !cached {
			return nil, err
		}
		if err := send(); err != nil {
			return nil, err
		}
	}
	ft, resp, err := wire.ReadFrame(c.br)
	if err != nil {
		c.dropLocked()
		return nil, err
	}
	if ft != wantType {
		c.dropLocked()
		return nil, fmt.Errorf("cluster: unexpected response frame type %d (want %d)", ft, wantType)
	}
	if err := c.conn.SetDeadline(time.Time{}); err != nil {
		c.dropLocked()
		return nil, err
	}
	return resp, nil
}

// Close tears down the connection; a later call redials.
func (c *rpcClient) Close() {
	c.mu.Lock()
	c.dropLocked()
	c.mu.Unlock()
}

// epochMismatchError reports that a peer refused a request because it is on
// a different topology epoch. Callers resolve by exchanging topologies with
// the peer (fetch if it is newer, push if it is older) and retrying.
type epochMismatchError struct {
	peerEpoch uint64
}

func (e *epochMismatchError) Error() string {
	return fmt.Sprintf("cluster: peer on topology epoch %d rejected request", e.peerEpoch)
}

func (c *rpcClient) query(q *queryRequest, timeout time.Duration) (*queryResponse, error) {
	payload, err := c.roundTrip(FrameQueryReq, encodeQueryRequest(q), FrameQueryResp, timeout)
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

func (c *rpcClient) replPull(q *replPullRequest, timeout time.Duration) (*replPullResponse, error) {
	payload, err := c.roundTrip(FrameReplPull, encodeReplPullRequest(q), FrameReplResp, timeout)
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

// topo fetches the peer's current topology.
func (c *rpcClient) topo(timeout time.Duration) (*Topology, error) {
	payload, err := c.roundTrip(FrameTopoReq, nil, FrameTopoResp, timeout)
	if err != nil {
		return nil, err
	}
	return decodeTopology(payload)
}

// topoPush offers the peer a topology; it returns the peer's resulting
// epoch (>= t.Epoch when the push took or the peer was already newer).
func (c *rpcClient) topoPush(t *Topology, timeout time.Duration) (uint64, error) {
	payload, err := c.roundTrip(FrameTopoPush, encodeTopology(t), FrameTopoAck, timeout)
	if err != nil {
		return 0, err
	}
	p := binenc.NewReader(payload)
	return p.Uvarint(), p.Err()
}
