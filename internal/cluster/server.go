package cluster

import (
	"fmt"
	"net"

	"repro/internal/binenc"
	"repro/internal/wire"
)

// Server is a node's cluster listener: one port taking peer traffic of every
// kind. It is a wire.Server whose sink lands forwarded ingest (peerSink) and
// whose request handler answers query scatter, replication pulls and
// topology exchange. Frames on one connection are handled in order, so a
// peer's RPC responses never interleave and a ping after forwards answers
// only once they are applied.
type Server struct {
	ws *wire.Server
}

// NewServer serves cluster traffic for router on an injected listener
// (in-memory in tests, TCP in odad) and owns it until Close.
func NewServer(ln net.Listener, router *Router) *Server {
	return &Server{ws: wire.NewRequestServer(ln, peerSink{agentSink{router}}, router.serveRequest)}
}

// Close stops accepting, tears down open peer connections at once (peers
// never hang up, so there is nothing to drain), and waits for in-flight
// handlers to finish: a frame already read off a connection (in particular
// a forwarded batch) is fully applied before Close returns, but no further
// frame is read.
func (s *Server) Close() error { return s.ws.CloseNow() }

// serveRequest answers one peer request frame.
func (r *Router) serveRequest(ft uint8, payload []byte) (uint8, []byte, error) {
	switch ft {
	case FrameQueryReq:
		q, err := decodeQueryRequest(payload)
		if err != nil {
			return 0, nil, err
		}
		return FrameQueryResp, encodeQueryResponse(q.Op, r.execQuery(q)), nil
	case FrameReplPull:
		q, err := decodeReplPullRequest(payload)
		if err != nil {
			return 0, nil, err
		}
		return FrameReplResp, encodeReplPullResponse(r.serveReplPull(q)), nil
	case FrameTopoReq:
		return FrameTopoResp, encodeTopology(r.Topology()), nil
	case FrameTopoPush:
		t, err := decodeTopology(payload)
		if err != nil {
			return 0, nil, err
		}
		r.applyTopology(t)
		return FrameTopoAck, binenc.AppendUvarint(nil, r.Epoch()), nil
	default: // includes the retired read-repair frames 24–27
		return 0, nil, fmt.Errorf("cluster: unexpected frame type %d", ft)
	}
}
