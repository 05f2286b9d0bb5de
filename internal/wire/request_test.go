package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// Request and answer frame types for these tests: outside the batch
// protocol, as a cluster's are.
const (
	testReq  uint8 = 40
	testResp uint8 = 41
)

// pipeDialer dials net.Pipe pairs whose far half goes to ln (nil: to no
// server, so the test drives the far half itself). It counts dials and keeps
// every far half.
type pipeDialer struct {
	ln    *memListener
	dials atomic.Uint64
	far   chan net.Conn
}

func newPipeDialer(ln *memListener) *pipeDialer {
	return &pipeDialer{ln: ln, far: make(chan net.Conn, 8)}
}

func (d *pipeDialer) dial(string) (net.Conn, error) {
	d.dials.Add(1)
	client, server := net.Pipe()
	if d.ln != nil {
		select {
		case d.ln.ch <- server:
		case <-d.ln.closed:
			client.Close()
			server.Close()
			return nil, net.ErrClosed
		}
	}
	d.far <- server
	return client, nil
}

// TestRequestHandlerAnswersInOrder: a request frame is answered on the
// connection it came in on, after every batch sent before it on that
// connection has been handled; a request the handler refuses drops the
// connection unanswered, and the client's next round trip redials.
func TestRequestHandlerAnswersInOrder(t *testing.T) {
	ln := newMemListener()
	var applied atomic.Uint64
	slowBatch := appendFunc(func([]timeseries.RefEntry) {
		time.Sleep(2 * time.Millisecond) // a request handled before it would see it missing
		applied.Add(1)
	})
	srv := NewRequestServer(ln, slowBatch, func(ft uint8, payload []byte) (uint8, []byte, error) {
		if ft != testReq {
			return 0, nil, fmt.Errorf("refused frame type %d", ft)
		}
		return testResp, binary.AppendUvarint(append([]byte(nil), payload...), applied.Load()), nil
	})
	defer srv.Close()
	d := newPipeDialer(ln)
	c, err := DialWith(d.dial, "mem")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 3; i++ {
		if err := c.Send(sampleBatch()); err != nil {
			t.Fatal(err)
		}
		resp, err := c.RoundTrip(testReq, []byte{byte(i)}, testResp, time.Second)
		if err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		if n, _ := binary.Uvarint(resp[1:]); resp[0] != byte(i) || n != uint64(i) {
			t.Fatalf("round trip %d: answer %v, want the request echoed and %d batches applied", i, resp, i)
		}
	}
	if got := d.dials.Load(); got != 1 {
		t.Fatalf("batches and requests took %d connections, want 1", got)
	}

	if _, err := c.RoundTrip(testReq+2, nil, testResp, time.Second); err == nil {
		t.Fatal("a refused request was answered")
	}
	if got := srv.Errors(); got != 1 {
		t.Fatalf("server errors = %d, want 1 for the refused request", got)
	}
	if _, err := c.RoundTrip(testReq, []byte{9}, testResp, time.Second); err != nil {
		t.Fatalf("round trip after the drop: %v", err)
	}
	if got := d.dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want a redial after the dropped connection", got)
	}
}

// TestCloseNowReleasesUnreadAnswer: CloseNow does not wait out closeDrain
// for a client that never hangs up, and an answer blocked on a net.Pipe
// client that never reads is released by it.
func TestCloseNowReleasesUnreadAnswer(t *testing.T) {
	ln := newMemListener()
	handled := make(chan struct{})
	srv := NewRequestServer(ln, nil, func(uint8, []byte) (uint8, []byte, error) {
		close(handled)
		return testResp, []byte("never read"), nil
	})
	conn, err := ln.dialer()("mem")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var frame bytes.Buffer
	if err := WriteFrame(&frame, testReq, []byte("q")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	<-handled
	start := time.Now()
	if err := srv.CloseNow(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= closeDrain/2 {
		t.Fatalf("CloseNow took %v; it must not wait for the client (closeDrain %v)", took, closeDrain)
	}
}

// TestRoundTripRetriesOnlyAKeptConnection: a request write that fails on a
// connection kept from an earlier call — the far end restarted — redials and
// retries once; one that fails on a fresh dial is returned as it is.
func TestRoundTripRetriesOnlyAKeptConnection(t *testing.T) {
	t.Run("kept", func(t *testing.T) {
		ln := newMemListener()
		srv := NewRequestServer(ln, nil, func(_ uint8, payload []byte) (uint8, []byte, error) {
			return testResp, payload, nil
		})
		defer srv.Close()
		d := newPipeDialer(ln)
		c := NewClient(d.dial, "mem")
		defer c.Close()
		if d.dials.Load() != 0 {
			t.Fatal("NewClient dialed before its first call")
		}
		if _, err := c.RoundTrip(testReq, []byte("a"), testResp, time.Second); err != nil {
			t.Fatal(err)
		}
		(<-d.far).Close() // the far end goes away under the kept connection
		resp, err := c.RoundTrip(testReq, []byte("b"), testResp, time.Second)
		if err != nil || string(resp) != "b" {
			t.Fatalf("round trip over a dead kept connection: %q, %v; want it retried on a redial", resp, err)
		}
		if got := d.dials.Load(); got != 2 {
			t.Fatalf("dials = %d, want 2", got)
		}
	})
	t.Run("fresh", func(t *testing.T) {
		var dials atomic.Uint64
		c := NewClient(func(string) (net.Conn, error) {
			dials.Add(1)
			client, server := net.Pipe()
			server.Close() // every dial reaches a far end that is already gone
			return client, nil
		}, "mem")
		defer c.Close()
		for i := uint64(1); i <= 2; i++ {
			if _, err := c.RoundTrip(testReq, nil, testResp, time.Second); err == nil {
				t.Fatal("round trip to a closed far end succeeded")
			}
			if got := dials.Load(); got != i {
				t.Fatalf("after %d round trips: %d dials, want %d (no retry on a fresh dial)", i, got, i)
			}
		}
	})
}

// TestFailedRoundTripClosesConnection: a round trip that fails — here it
// times out — closes its connection at once, so a far end that answers late
// on a net.Pipe is released instead of blocking on a reader that will never
// come; so does an answer of the wrong type.
func TestFailedRoundTripClosesConnection(t *testing.T) {
	for _, tc := range []struct {
		name     string
		respType uint8
		timeout  time.Duration
		late     bool
	}{
		{"timeout", testResp, 20 * time.Millisecond, true},
		{"wrong-type", testResp + 2, time.Second, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newPipeDialer(nil)
			c := NewClient(d.dial, "mem")
			defer c.Close()
			returned := make(chan struct{})
			answered := make(chan error, 1)
			go func() {
				far := <-d.far
				defer far.Close()
				if _, _, err := ReadFrame(bufio.NewReader(far)); err != nil {
					answered <- err
					return
				}
				if tc.late {
					<-returned
				}
				if err := WriteFrame(far, tc.respType, []byte("late")); err != nil {
					answered <- err
					return
				}
				_ = far.SetReadDeadline(time.Now().Add(5 * time.Second))
				_, err := far.Read(make([]byte, 1))
				answered <- err
			}()
			_, err := c.RoundTrip(testReq, []byte("q"), testResp, tc.timeout)
			close(returned)
			if err == nil {
				t.Fatal("round trip succeeded")
			}
			select {
			case err := <-answered:
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
					t.Fatalf("far end: %v, want the connection closed under it", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("far end still blocked: the failed round trip left its connection open")
			}
		})
	}
}

// TestIngestServerRefusesRequests: a server built without a request handler
// — an agent-facing ingest server — drops a connection that sends a request
// frame (here a cluster query request's type) and counts the error.
func TestIngestServerRefusesRequests(t *testing.T) {
	ln := newMemListener()
	srv := NewServerListener(ln, nil)
	defer srv.Close()
	conn, err := ln.dialer()("mem")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var frame bytes.Buffer
	if err := WriteFrame(&frame, 16, []byte("q")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read %d bytes, %v; want the connection dropped unanswered", n, err)
	}
	if got := srv.Errors(); got != 1 {
		t.Fatalf("server errors = %d, want 1", got)
	}
}

// TestRoundTripRedialsARestartedPeer: over loopback TCP, a connection kept
// from an earlier round trip to a server that has since restarted — closed,
// and served again on the same address — is redialled before the next
// request goes out. The request has no payload, so it is one write, which
// the dead socket accepts; sent down it, its answer would read EOF.
func TestRoundTripRedialsARestartedPeer(t *testing.T) {
	echo := func(_ uint8, payload []byte) (uint8, []byte, error) {
		return testResp, append([]byte("ok"), payload...), nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewRequestServer(ln, nil, echo)
	c := NewClient(nil, addr)
	defer c.Close()
	if _, err := c.RoundTrip(testReq, nil, testResp, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseNow(); err != nil {
		t.Fatal(err)
	}
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv = NewRequestServer(ln, nil, echo)
	defer srv.CloseNow()
	resp, err := c.RoundTrip(testReq, nil, testResp, time.Second)
	if err != nil || string(resp) != "ok" {
		t.Fatalf("round trip to the restarted server: %q, %v; want it answered on a redial", resp, err)
	}
	if got := c.Redials(); got != 1 {
		t.Fatalf("redials = %d, want 1", got)
	}
}
