package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/binenc"
	"repro/internal/wire"
)

// Server is a node's cluster listener: one port accepting peer traffic of
// every kind — forwarded ingest batches (wire dictionary frames), liveness
// pings, query scatter requests, and replication pulls. Frames on one
// connection are handled sequentially, so a peer's RPC responses can never
// interleave.
type Server struct {
	router *Router
	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// NewServer serves cluster traffic for router on an injected listener
// (in-memory in tests, TCP in odad) and owns it until Close.
func NewServer(ln net.Listener, router *Router) *Server {
	s := &Server{router: router, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	var dict wire.ConnDict // empty until a dict-speaking peer defines a series
	for {
		ft, payload, err := wire.ReadFrame(r)
		if err == nil {
			err = s.handleFrame(conn, &dict, ft, payload)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !s.closed.Load() {
				log.Printf("cluster: connection from %s dropped: %v", conn.RemoteAddr(), err)
			}
			return
		}
	}
}

func (s *Server) handleFrame(conn net.Conn, dict *wire.ConnDict, ft uint8, payload []byte) error {
	switch ft {
	case wire.FramePing:
		return wire.WriteFrame(conn, wire.FramePong, payload)
	case wire.FrameDict:
		_, err := dict.AddDefs(payload)
		return err
	case wire.FrameRefBatch:
		b, err := dict.DecodeRefBatch(payload)
		if err != nil {
			return err
		}
		s.router.applyForwarded(b)
		return nil
	case FrameQueryReq:
		q, err := decodeQueryRequest(payload)
		if err != nil {
			return err
		}
		resp := s.router.execQuery(q)
		return wire.WriteFrame(conn, FrameQueryResp, encodeQueryResponse(q.Op, resp))
	case FrameReplPull:
		q, err := decodeReplPullRequest(payload)
		if err != nil {
			return err
		}
		resp := s.router.serveReplPull(q)
		return wire.WriteFrame(conn, FrameReplResp, encodeReplPullResponse(resp))
	case FrameTopoReq:
		return wire.WriteFrame(conn, FrameTopoResp, encodeTopology(s.router.Topology()))
	case FrameTopoPush:
		t, err := decodeTopology(payload)
		if err != nil {
			return err
		}
		s.router.applyTopology(t)
		return wire.WriteFrame(conn, FrameTopoAck, binenc.AppendUvarint(nil, s.router.Epoch()))
	default: // includes the retired read-repair frames 24–27
		return fmt.Errorf("cluster: unexpected frame type %d", ft)
	}
}

// Close stops accepting, tears down open peer connections, and waits for
// in-flight handlers to finish: a frame already read off a connection (in
// particular a forwarded batch) is fully applied before Close returns, but
// no further frame is read.
func (s *Server) Close() error {
	s.closed.Store(true)
	err := s.ln.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}
