package wire

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// memListener is an in-memory net.Listener: the paired dialer hands the
// server half of a net.Pipe to Accept. It proves the injectable
// dialer/listener seams carry the protocol with no real sockets.
type memListener struct {
	ch     chan net.Conn
	closed chan struct{}
}

func newMemListener() *memListener {
	return &memListener{ch: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}

func (l *memListener) Addr() net.Addr {
	return &net.UnixAddr{Name: "mem", Net: "mem"}
}

// dialer returns a Dialer that connects net.Pipe halves to the listener.
func (l *memListener) dialer() Dialer {
	return func(string) (net.Conn, error) {
		client, server := net.Pipe()
		select {
		case l.ch <- server:
			return client, nil
		case <-l.closed:
			client.Close()
			server.Close()
			return nil, net.ErrClosed
		}
	}
}

func TestInMemoryDialerAndListener(t *testing.T) {
	ln := newMemListener()
	var samples atomic.Uint64
	srv := NewServerListener(ln, appendFunc(func(entries []timeseries.RefEntry) {
		samples.Add(uint64(len(entries)))
	}))
	c, err := DialWith(ln.dialer(), "anywhere")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Send(sampleBatch()); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	want := uint64(3 * 4) // sampleBatch carries 4 samples
	if got := samples.Load(); got != want {
		t.Fatalf("server saw %d samples, want %d", got, want)
	}
	if srv.Batches() != 3 || srv.Errors() != 0 {
		t.Fatalf("batches=%d errors=%d", srv.Batches(), srv.Errors())
	}
}

// TestClientRedialsBrokenConn: a send that fails marks the connection
// broken, and the next send transparently redials instead of writing into
// the dead socket forever.
func TestClientRedialsBrokenConn(t *testing.T) {
	ln := newMemListener()
	srv := NewServerListener(ln, nil)
	defer srv.Close()

	var dials atomic.Uint64
	inner := ln.dialer()
	var lastServerVisible net.Conn
	dial := func(addr string) (net.Conn, error) {
		dials.Add(1)
		c, err := inner(addr)
		if err == nil {
			lastServerVisible = c
		}
		return c, err
	}
	c, err := DialWith(dial, "anywhere")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(sampleBatch()); err != nil {
		t.Fatal(err)
	}
	// Sever the connection under the client.
	lastServerVisible.Close()
	c.SetTimeout(50 * time.Millisecond)
	if err := c.Send(sampleBatch()); err == nil {
		t.Fatal("send on a severed connection should fail")
	}
	if err := c.Send(sampleBatch()); err != nil {
		t.Fatalf("send after redial: %v", err)
	}
	if got := c.Redials(); got != 1 {
		t.Fatalf("redials = %d, want 1", got)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2", got)
	}
}

// TestDialWithEagerError: a failing dialer surfaces at DialWith, not on
// the first Send.
func TestDialWithEagerError(t *testing.T) {
	boom := errors.New("no route")
	if _, err := DialWith(func(string) (net.Conn, error) { return nil, boom }, "x"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}
