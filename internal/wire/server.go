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

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// Sink is what a Server lands batches in: the timeseries.RefAppender ingest
// contract without its keyed AppendBatch. Each connection resolves a series
// it defines once, the first time a batch uses it, and appends every batch
// by ref; when RefEpoch moves, the connection resolves its series again.
// A Sink is called from every connection's goroutine at once.
// timeseries.Store, persist.DurableStore and a cluster router's sinks
// implement it.
type Sink interface {
	Resolve(id metric.ID, kind metric.Kind, unit metric.Unit) (timeseries.SeriesRef, error)
	AppendRefs(entries []timeseries.RefEntry) (int, error)
	RefEpoch() uint64
}

// RequestHandler answers one request frame with one response frame, written
// back on the connection the request came in on before the next frame is
// read. An error drops the connection unanswered.
type RequestHandler func(frameType uint8, payload []byte) (respType uint8, resp []byte, err error)

// Dialer opens a client connection to a telemetry server. The default is
// net.Dial over TCP; tests and fault-injection harnesses substitute
// in-memory pipes or wrappers that delay, truncate or partition traffic.
type Dialer func(addr string) (net.Conn, error)

func tcpDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// closeDrain bounds how long Close lets open connections keep sending before
// it closes them under their readers.
const closeDrain = time.Second

// Server accepts TCP connections from collection agents and appends each
// received batch to its sink. It is the aggregation endpoint of the
// push-mode collection fabric, and with a request handler also a cluster
// node's peer listener. Frames on one connection are handled in order.
type Server struct {
	ln       net.Listener
	sink     Sink           // nil: batches are decoded, counted and dropped
	requests RequestHandler // nil: every frame type beyond the batch protocol is refused
	wg       sync.WaitGroup
	closed   atomic.Bool

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
func NewServer(addr string, sink Sink) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServerListener(ln, sink), nil
}

// NewServerListener serves the wire protocol on an injected listener and
// owns it until Close. It is how tests and chaos harnesses run a server
// over in-memory connections — no real sockets involved.
func NewServerListener(ln net.Listener, sink Sink) *Server {
	return NewRequestServer(ln, sink, nil)
}

// NewRequestServer is NewServerListener with a request handler: a frame of
// any type the batch protocol does not define goes to requests, and its
// answer is written back on the same connection.
func NewRequestServer(ln net.Listener, sink Sink, requests RequestHandler) *Server {
	s := &Server{ln: ln, sink: sink, requests: requests, conns: make(map[net.Conn]struct{})}
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
	c := &serverConn{r: bufio.NewReader(conn)}
	for {
		respType, resp, err := s.serveFrame(c)
		if err != nil {
			if !errors.Is(err, io.EOF) && !s.closed.Load() {
				s.errors.Add(1)
				log.Printf("wire: connection from %s dropped: %v", conn.RemoteAddr(), err)
			}
			return
		}
		// This goroutine is the connection's only writer, so answers need
		// no write serialization. One that cannot be written means the far
		// end left, which is no protocol error.
		if respType != 0 && WriteFrame(conn, respType, resp) != nil {
			return
		}
	}
}

// serverConn is one connection's receive state. The series dictionary is
// per connection and dies with it: a redialing client starts a fresh
// dictionary and re-defines series as it goes.
type serverConn struct {
	r    *bufio.Reader
	hdr  [headerLen]byte
	buf  []byte // payload scratch: every frame is read into it
	dict ConnDict
}

// serveFrame reads one frame into c's scratch, applies it and returns the
// answer to write back, if any (respType 0: none). Nothing that handles a
// frame keeps its payload past the answer's write — AddDefs and the request
// decoders copy what they keep, and a pong's echo is written before the next
// frame is read — so every frame reuses one buffer, and a ref batch on an
// already-resolved dictionary allocates nothing.
func (s *Server) serveFrame(c *serverConn) (respType uint8, resp []byte, err error) {
	ft, payload, err := readFrame(c.r, &c.hdr, c.buf)
	if err != nil {
		return 0, nil, err
	}
	c.buf = payload
	switch ft {
	case FramePing:
		s.pings.Add(1)
		return FramePong, payload, nil
	case FrameDict:
		n, err := c.dict.AddDefs(payload)
		if err == nil {
			s.dictDefs.Add(uint64(n))
		}
		return 0, nil, err
	case FrameRefBatch:
		return 0, nil, s.refBatch(&c.dict, payload)
	}
	if s.requests == nil {
		return 0, nil, fmt.Errorf("wire: unexpected frame type %d", ft)
	}
	return s.requests(ft, payload)
}

// refBatch decodes a FrameRefBatch payload against dict and appends it to
// the sink. Before any dictionary frame every ref is undefined. An error is
// a malformed frame, which drops the connection; a series the sink cannot
// resolve (closed, WAL error) drops this batch alone, and what the sink's
// append refuses, the sink counts.
func (s *Server) refBatch(dict *ConnDict, payload []byte) error {
	if _, err := dict.decode(payload); err != nil {
		return err
	}
	s.refBatches.Add(1)
	s.batches.Add(1)
	s.samples.Add(uint64(len(dict.entries)))
	if s.sink == nil {
		return nil
	}
	if entries, err := dict.resolve(s.sink); err == nil {
		_, _ = s.sink.AppendRefs(entries)
	}
	return nil
}

// Close stops accepting and lets open connections drain: a client that has
// hung up is read to its end, and any connection still open after closeDrain
// is closed under its reader. Close returns once every frame already read
// has been handed to the sink, so on an accepted connection a batch sent
// before its client's Close is applied before a Close that follows it
// returns.
func (s *Server) Close() error { return s.close(closeDrain) }

// CloseNow stops accepting and closes every open connection at once, then
// waits for the frames already read to be handled: no further frame is read,
// and an answer blocked on a client that never reads is released. It is for
// listeners whose clients never hang up, such as a cluster node's peers.
func (s *Server) CloseNow() error { return s.close(0) }

func (s *Server) close(drain time.Duration) error {
	s.closed.Store(true)
	err := s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if drain > 0 {
		select {
		case <-done:
			return err
		case <-time.After(drain):
		}
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
// recovery). A cluster node also holds one per peer for request/response
// traffic (RoundTrip).
type Client struct {
	conn net.Conn      // nil until a client built by NewClient first dials
	br   *bufio.Reader // reads answers (pongs, RoundTrip) off conn
	mu   sync.Mutex

	addr    string
	dial    Dialer
	broken  bool // the next call dials first (true before a NewClient dials, too)
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
	c := NewClient(dial, addr)
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewClient builds a client that dials (nil = TCP) on its first call
// instead of now: the far end may be down when the client is made.
func NewClient(dial Dialer, addr string) *Client {
	if dial == nil {
		dial = tcpDial
	}
	return &Client{addr: addr, dial: dial, broken: true}
}

// Redials returns how many reconnects the client has made; a first dial is
// not one.
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

// connectLocked dials a connection, replacing a broken one if there is
// one; the caller holds c.mu.
func (c *Client) connectLocked() error {
	redial := c.conn != nil
	if redial {
		_ = c.conn.Close()
	}
	conn, err := c.dial(c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	c.dict = newClientDict(conn) // renegotiate from an empty dictionary
	c.deadlineSet = false
	c.broken = false
	if redial {
		c.redials.Add(1)
	}
	return nil
}

// readyLocked dials if the client has no healthy connection; the caller
// holds c.mu.
func (c *Client) readyLocked() error {
	if c.broken {
		return c.connectLocked()
	}
	return nil
}

// Send pushes one batch; safe for concurrent use. After a failed Send the
// connection is considered broken and the next call redials before
// writing; if the redial fails, that error is returned and the client
// stays broken for the call after.
func (c *Client) Send(b *Batch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.readyLocked(); err != nil {
		return err
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

// exchangeLocked writes one frame and reads one answer of type want, dialing
// first if the client has no healthy connection; deadline bounds the
// exchange (zero: none). sent reports whether the request was written. The
// caller holds c.mu and handles a failure.
func (c *Client) exchangeLocked(reqType uint8, payload []byte, want uint8, deadline time.Time) (resp []byte, sent bool, err error) {
	if err := c.readyLocked(); err != nil {
		return nil, false, err
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		return nil, false, err
	}
	if err := WriteFrame(c.conn, reqType, payload); err != nil {
		return nil, false, err
	}
	ft, resp, err := ReadFrame(c.br)
	if err != nil {
		return nil, true, err
	}
	if ft != want {
		return nil, true, fmt.Errorf("wire: answer of frame type %d, want %d", ft, want)
	}
	if err := c.conn.SetDeadline(time.Time{}); err != nil {
		return nil, true, err
	}
	c.deadlineSet = false
	return resp, true, nil
}

// Ping sends a liveness probe and waits for the server's echo, returning
// the round-trip time. It is the failure detector's primitive: a Send is
// one-way, so its success only proves bytes left this side, while a pong
// proves the far end is reading and responding — and a pong that arrives
// slowly (injected latency, long queues) is still a pong, so slowness and
// death stay distinguishable. timeout bounds the whole round trip (0 waits
// forever); a timeout or transport error marks the connection broken, and
// the next Ping/Send redials. A Ping is never retried, so a far end that
// restarted since the last call costs one failed probe. Safe for concurrent
// use with Send.
func (c *Client) Ping(timeout time.Duration) (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.readyLocked(); err != nil {
		return 0, err
	}
	start := time.Now()
	var deadline time.Time
	if timeout > 0 {
		deadline = start.Add(timeout)
	}
	c.pingSeq++
	var nonce [8]byte
	binary.BigEndian.PutUint64(nonce[:], c.pingSeq)
	echo, _, err := c.exchangeLocked(FramePing, nonce[:], FramePong, deadline)
	if err == nil && !bytes.Equal(echo, nonce[:]) {
		err = errors.New("wire: pong echoes another ping")
	}
	if err != nil {
		c.broken = true
		return 0, err
	}
	return time.Since(start), nil
}

// RoundTrip writes one request frame and returns the payload of the answer,
// which must be a frame of type want; timeout bounds the whole exchange (0
// waits forever). Any failure closes the connection at once — on a
// synchronous transport (net.Pipe) that is what releases the server's
// blocked answer — and the next call redials. The far end may have
// restarted since the call that left a connection kept. One whose far end
// has already hung up (peerClosed: a TCP socket with the FIN or reset
// queued) is redialled before the request goes out: a request with no
// payload is one write, which the dead socket accepts, and the read after
// it would fail. A request write that fails on a kept connection redials and
// retries once, no answer being in flight. A write that fails on a fresh
// dial is not retried, and neither is a connection that closes after the
// request went out: that is how a far end refuses a request, and a refused
// request is not sent twice. Safe for concurrent use with Send.
func (c *Client) RoundTrip(reqType uint8, payload []byte, want uint8, timeout time.Duration) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if !c.broken && peerClosed(c.conn) {
		_ = c.dropLocked()
	}
	kept := !c.broken
	resp, sent, err := c.exchangeLocked(reqType, payload, want, deadline)
	if err != nil && !sent && kept {
		_ = c.dropLocked()
		resp, _, err = c.exchangeLocked(reqType, payload, want, deadline)
	}
	if err != nil {
		_ = c.dropLocked()
		return nil, err
	}
	return resp, nil
}

// dropLocked closes the connection now and leaves the next call to redial.
func (c *Client) dropLocked() error {
	c.broken = true
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// Close closes the connection; a later call redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropLocked()
}
