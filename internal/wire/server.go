package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handler consumes decoded batches on the server side.
type Handler func(*Batch)

// Dialer opens a client connection to a telemetry server. The default is
// net.Dial over TCP; tests and fault-injection harnesses substitute
// in-memory pipes or wrappers that delay, truncate or partition traffic.
type Dialer func(addr string) (net.Conn, error)

func tcpDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// closeDrain bounds how long Close lets open connections keep sending before
// it closes them under their readers.
const closeDrain = time.Second

// Server accepts TCP connections from collection agents and dispatches each
// received batch to the handler. It is the aggregation endpoint of the
// push-mode collection fabric.
type Server struct {
	ln      net.Listener
	handler Handler
	wg      sync.WaitGroup
	closed  atomic.Bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	batches    atomic.Uint64
	samples    atomic.Uint64
	errors     atomic.Uint64
	pings      atomic.Uint64
	dictDefs   atomic.Uint64
	refBatches atomic.Uint64
}

// NewServer listens on addr ("127.0.0.1:0" picks a free port) and serves
// until Close.
func NewServer(addr string, handler Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServerListener(ln, handler), nil
}

// NewServerListener serves the wire protocol on an injected listener and
// owns it until Close. It is how tests and chaos harnesses run a server
// over in-memory connections — no real sockets involved.
func NewServerListener(ln net.Listener, handler Handler) *Server {
	s := &Server{ln: ln, handler: handler, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Batches returns the number of successfully decoded batches.
func (s *Server) Batches() uint64 { return s.batches.Load() }

// Samples returns the number of samples received across all batches.
func (s *Server) Samples() uint64 { return s.samples.Load() }

// Errors returns the number of connections dropped due to protocol errors.
func (s *Server) Errors() uint64 { return s.errors.Load() }

// Pings returns the number of ping frames answered.
func (s *Server) Pings() uint64 { return s.pings.Load() }

// DictDefs returns how many dictionary series definitions have been
// received across all connections.
func (s *Server) DictDefs() uint64 { return s.dictDefs.Load() }

// RefBatches returns how many batches arrived as ref batches (also
// counted in Batches).
func (s *Server) RefBatches() uint64 { return s.refBatches.Load() }

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
	// The series dictionary is per connection and dies with it: a redialing
	// client starts a fresh dictionary and re-defines series as it goes.
	var dict ConnDict
	for {
		ft, payload, err := ReadFrame(r)
		if err == nil && ft == FramePing {
			// Answer liveness probes inline: the pong is the only
			// server-to-client traffic, and this goroutine is the only
			// writer on the connection, so no write serialization needed.
			if err := WriteFrame(conn, FramePong, payload); err != nil {
				return
			}
			s.pings.Add(1)
			continue
		}
		if err == nil && ft == FrameDict {
			var n int
			if n, err = dict.AddDefs(payload); err == nil {
				s.dictDefs.Add(uint64(n))
				continue
			}
		}
		var b *Batch
		switch {
		case err != nil:
		case ft == FrameRefBatch: // before any dictionary frame, every ref is undefined
			if b, err = dict.DecodeRefBatch(payload); err == nil {
				s.refBatches.Add(1)
			}
		default:
			err = fmt.Errorf("wire: unexpected frame type %d", ft)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !s.closed.Load() {
				s.errors.Add(1)
				log.Printf("wire: connection from %s dropped: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.batches.Add(1)
		for _, rec := range b.Records {
			s.samples.Add(uint64(len(rec.Samples)))
		}
		if s.handler != nil {
			s.handler(b)
		}
	}
}

// Close stops accepting and lets open connections drain: a client that has
// hung up is read to its end, and any connection still open after closeDrain
// is closed under its reader. Close returns once every frame already read
// has been handed to the handler, so on an accepted connection a batch sent
// before its client's Close is applied before a Close that follows it
// returns.
func (s *Server) Close() error {
	s.closed.Store(true)
	err := s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-time.After(closeDrain):
	}
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	<-done
	return err
}

// Client is an agent-side connection that pushes batches to a server as v3
// dictionary frames (dict.go). A send that fails marks the connection
// broken; the next Send transparently redials through the client's dialer,
// so an agent rides out server restarts and transient partitions without
// being rebuilt (pair with retry/backoff at the sink layer for in-batch
// recovery).
type Client struct {
	conn net.Conn
	mu   sync.Mutex

	addr    string
	dial    Dialer
	broken  bool
	redials atomic.Uint64
	pingSeq uint64 // nonce for Ping frames, guarded by mu

	// dict is the connection's send side — buffered writer and series
	// dictionary — replaced on redial so the new connection renegotiates
	// from scratch. Guarded by mu.
	dict *clientDict

	timeout     time.Duration
	deadlineSet bool
}

// Dial connects to a telemetry server over TCP.
func Dial(addr string) (*Client, error) {
	return DialWith(nil, addr)
}

// DialWith connects through an injectable dialer (nil = TCP). The initial
// connection is established eagerly so configuration errors surface here,
// not on the first Send.
func DialWith(dial Dialer, addr string) (*Client, error) {
	if dial == nil {
		dial = tcpDial
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, dict: newClientDict(conn), addr: addr, dial: dial}, nil
}

// Redials returns how many reconnects Sends have performed.
func (c *Client) Redials() uint64 { return c.redials.Load() }

// EnableDict does nothing: every Client speaks the v3 dictionary protocol.
// It exists only for bench/trace, which still calls it.
func (c *Client) EnableDict() {}

// SetTimeout bounds each subsequent Send with a write deadline of d,
// counted from the moment the send starts (0 disables the deadline again).
// A deadline turns a wedged endpoint into a prompt error instead of an
// indefinite stall. Safe for concurrent use with Send.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// redialLocked re-establishes a broken connection through the dialer; the
// caller holds c.mu.
func (c *Client) redialLocked() error {
	_ = c.conn.Close()
	conn, err := c.dial(c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.dict = newClientDict(conn) // renegotiate from an empty dictionary
	c.deadlineSet = false
	c.broken = false
	c.redials.Add(1)
	return nil
}

// Send pushes one batch; safe for concurrent use. After a failed Send the
// connection is considered broken and the next call redials before
// writing; if the redial fails, that error is returned and the client
// stays broken for the call after.
func (c *Client) Send(b *Batch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		if err := c.redialLocked(); err != nil {
			return err
		}
	}
	if c.timeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			c.broken = true
			return err
		}
		c.deadlineSet = true
	} else if c.deadlineSet {
		if err := c.conn.SetWriteDeadline(time.Time{}); err != nil {
			c.broken = true
			return err
		}
		c.deadlineSet = false
	}
	if err := c.dict.send(b); err != nil {
		c.broken = true
		return err
	}
	return nil
}

// Ping sends a liveness probe and waits for the server's echo, returning
// the round-trip time. It is the failure detector's primitive: a Send is
// one-way, so its success only proves bytes left this side, while a pong
// proves the far end is reading and responding — and a pong that arrives
// slowly (injected latency, long queues) is still a pong, so slowness and
// death stay distinguishable. timeout bounds the whole round trip (0 waits
// forever); a timeout or transport error marks the connection broken, and
// the next Ping/Send redials. Safe for concurrent use with Send.
func (c *Client) Ping(timeout time.Duration) (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		if err := c.redialLocked(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	var deadline time.Time
	if timeout > 0 {
		deadline = start.Add(timeout)
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.broken = true
		return 0, err
	}
	c.pingSeq++
	var nonce [8]byte
	binary.BigEndian.PutUint64(nonce[:], c.pingSeq)
	if err := WriteFrame(c.conn, FramePing, nonce[:]); err != nil {
		c.broken = true
		return 0, err
	}
	ft, echo, err := ReadFrame(c.conn)
	if err != nil {
		c.broken = true
		return 0, err
	}
	if ft != FramePong || !bytes.Equal(echo, nonce[:]) {
		c.broken = true
		return 0, fmt.Errorf("wire: unexpected pong (type %d)", ft)
	}
	if err := c.conn.SetDeadline(time.Time{}); err != nil {
		c.broken = true
		return 0, err
	}
	c.deadlineSet = false
	return time.Since(start), nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
