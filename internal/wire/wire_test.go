package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/metric"
)

func sampleBatch() *Batch {
	return &Batch{
		Agent: "node07",
		Records: []Record{
			{
				ID:   metric.ID{Name: "power", Labels: metric.NewLabels("node", "n7", "rack", "r1")},
				Kind: metric.Gauge,
				Unit: metric.UnitWatt,
				Samples: []metric.Sample{
					{T: 1_700_000_000_000, V: 215.5},
					{T: 1_700_000_060_000, V: 218.25},
					{T: 1_700_000_120_000, V: 210},
				},
			},
			{
				ID:      metric.ID{Name: "energy", Labels: metric.NewLabels("node", "n7")},
				Kind:    metric.Counter,
				Unit:    metric.UnitJoule,
				Samples: []metric.Sample{{T: -5, V: math.Inf(1)}},
			},
			{
				ID:   metric.ID{Name: "empty"},
				Kind: metric.Gauge,
				Unit: metric.UnitNone,
			},
		},
	}
}

// appendV1Batch is the retired v1 batch encoder, kept to hand-build the
// frames a peer from before the dictionary protocol sends.
func appendV1Batch(dst []byte, b *Batch) []byte {
	dst = binenc.AppendString(dst, b.Agent)
	dst = binenc.AppendUvarint(dst, uint64(len(b.Records)))
	for i := range b.Records {
		r := &b.Records[i]
		dst = appendSeries(dst, r)
		dst = binenc.AppendUvarint(dst, uint64(len(r.Samples)))
		var prevT int64
		for _, sm := range r.Samples {
			dst = binenc.AppendVarint(dst, sm.T-prevT)
			prevT = sm.T
			dst = binenc.AppendFloat(dst, sm.V)
		}
	}
	return dst
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello telemetry")
	if err := WriteFrame(&buf, FrameRefBatch, payload); err != nil {
		t.Fatal(err)
	}
	ft, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameRefBatch || !bytes.Equal(got, payload) {
		t.Fatalf("frame = %d %q", ft, got)
	}
}

func TestFrameValidation(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, FramePing, []byte("payload"))
	raw := buf.Bytes()

	bad := append([]byte(nil), raw...)
	bad[0] = 0xFF
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}

	bad = append([]byte(nil), raw...)
	bad[2] = 99
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}

	// Version 2 was the row-oriented dictionary protocol: refused on both of
	// its frame types, as is any version/type pairing WriteFrame never stamps.
	for _, ft := range []uint8{FrameDict, FrameRefBatch} {
		var v bytes.Buffer
		_ = WriteFrame(&v, ft, []byte("payload"))
		if v.Bytes()[2] != Version3 {
			t.Fatalf("frame type %d stamped version %d, want %d", ft, v.Bytes()[2], Version3)
		}
		for _, version := range []uint8{2, Version} {
			bad = append([]byte(nil), v.Bytes()...)
			bad[2] = version
			if _, _, err := ReadFrame(bytes.NewReader(bad)); err != ErrBadVersion {
				t.Fatalf("frame type %d at version %d: %v", ft, version, err)
			}
		}
	}
	bad = append([]byte(nil), raw...)
	bad[2] = Version3 // a v1 frame type under the dictionary's version
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err != ErrBadVersion {
		t.Fatalf("ping frame at version 3: %v", err)
	}

	// The v1 batch frame is retired: refused at its header, whatever follows.
	var v1 bytes.Buffer
	_ = WriteFrame(&v1, FrameBatch, appendV1Batch(nil, sampleBatch()))
	if v1.Bytes()[2] != Version {
		t.Fatalf("batch frame stamped version %d, want %d", v1.Bytes()[2], Version)
	}
	if _, _, err := ReadFrame(&v1); !errors.Is(err, ErrBatchFrameRetired) {
		t.Fatalf("v1 batch frame: %v", err)
	}
	if _, err := DecodeBatch(nil); !errors.Is(err, ErrBatchFrameRetired) {
		t.Fatalf("DecodeBatch: %v", err)
	}

	bad = append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0x01 // corrupt payload
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err != ErrBadChecksum {
		t.Fatalf("checksum: %v", err)
	}

	bad = append([]byte(nil), raw...)
	bad[4], bad[5], bad[6], bad[7] = 0xFF, 0xFF, 0xFF, 0xFF // absurd length
	if _, _, err := ReadFrame(bytes.NewReader(bad)); err != ErrTooLarge {
		t.Fatalf("length: %v", err)
	}

	if err := WriteFrame(&buf, FrameRefBatch, make([]byte, MaxPayload+1)); err != ErrTooLarge {
		t.Fatalf("oversize write: %v", err)
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	var mu sync.Mutex
	var received []*Batch
	srv, err := NewServer("127.0.0.1:0", func(b *Batch) {
		mu.Lock()
		received = append(received, b)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 4
	const perClient = 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				if err := cl.Send(sampleBatch()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Batches() < clients*perClient && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Batches() != clients*perClient {
		t.Fatalf("server got %d batches", srv.Batches())
	}
	if srv.Samples() != clients*perClient*4 {
		t.Fatalf("server got %d samples", srv.Samples())
	}
	// Every batch arrived as a ref batch, and each connection defined the
	// batch's three series once.
	if srv.RefBatches() != clients*perClient || srv.DictDefs() != clients*3 {
		t.Fatalf("server got %d ref batches and %d definitions", srv.RefBatches(), srv.DictDefs())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(received) != clients*perClient {
		t.Fatalf("handler got %d batches", len(received))
	}
	if received[0].Agent != "node07" {
		t.Fatalf("agent = %q", received[0].Agent)
	}
}

func TestServerRejectsGarbageConnection(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = cl.conn.Write([]byte("GET / HTTP/1.1\r\n\r\n this is not telemetry"))
	cl.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Errors() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Errors() == 0 {
		t.Fatal("protocol error not counted")
	}
}

// TestServerCloseDrains: Close neither hangs on a client that stays connected
// and idle nor loses what a client sent before hanging up. The second part is
// the shutdown contract odad's SIGINT path keeps: on a connection the server
// is serving, client Close, then server Close, and every batch sent is
// applied by the time Close returns.
func TestServerCloseDrains(t *testing.T) {
	t.Run("idle-client", func(t *testing.T) {
		srv, err := NewServer("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Ping(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		closed := make(chan error, 1)
		start := time.Now()
		go func() { closed <- srv.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(closeDrain + 2*time.Second):
			t.Fatalf("Close still blocked %v after it was called, with one idle client", time.Since(start))
		}
		if srv.Errors() != 0 {
			t.Fatalf("closing an idle connection counted %d protocol errors", srv.Errors())
		}
	})
	t.Run("batches-before-hangup", func(t *testing.T) {
		var handled atomic.Uint64
		srv, err := NewServer("127.0.0.1:0", func(*Batch) {
			time.Sleep(time.Millisecond) // a slow store: frames queue behind it
			handled.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// The pong proves the server accepted the connection: one still in the
		// listener's backlog when Close runs is never served.
		if _, err := cl.Ping(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		const sent = 50
		for i := 0; i < sent; i++ {
			if err := cl.Send(sampleBatch()); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if n := handled.Load(); n != sent || srv.Batches() != sent {
			t.Fatalf("handler saw %d and server counted %d of %d batches when Close returned", n, srv.Batches(), sent)
		}
	})
}

// captureConn is a net.Conn that records what a client writes.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *captureConn) Close() error                     { return nil }
func (c *captureConn) SetWriteDeadline(time.Time) error { return nil }

// goldenBatches are five sends over one connection: ref-frame shapes 0, 1,
// 2, 3 and 0 again, the last with every series already defined.
func goldenBatches() []*Batch {
	at := func(name string, samples ...metric.Sample) Record {
		return Record{ID: metric.NewID(name, metric.NewLabels("node", "n1")), Kind: metric.Gauge, Unit: metric.UnitWatt, Samples: samples}
	}
	s := func(t int64, v float64) metric.Sample { return metric.Sample{T: t, V: v} }
	return []*Batch{
		{Agent: "n1", Records: []Record{at("a", s(100, 1)), at("b", s(100, 2)), at("c", s(100, 3))}},
		{Agent: "n1", Records: []Record{at("a", s(200, 4), s(200, 5)), at("d"), at("b", s(200, 6))}},
		{Agent: "n1", Records: []Record{at("c", s(300, 7)), at("a", s(310, 8)), at("b", s(290, 9))}},
		sampleBatch(),
		{Agent: "n1", Records: []Record{at("a", s(400, 10)), at("b", s(400, 11)), at("c", s(400, 12))}},
	}
}

// TestRefBatchGoldenBytes pins the bytes a fresh Client writes — dictionary
// and ref frames, headers included. The hash was taken from a client that
// had opted into the dictionary protocol when it was still opt-in, so a plain
// DialWith speaking it by default moved no byte.
func TestRefBatchGoldenBytes(t *testing.T) {
	const golden = "7b257f6725f1ac58198fe49c521fac6831af9c165524fe15c0df75aea1230755"
	conn := &captureConn{}
	cl, err := DialWith(func(string) (net.Conn, error) { return conn, nil }, "capture")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenBatches() {
		if err := cl.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	stream := conn.buf.Bytes()
	var shapes []byte
	for r := bytes.NewReader(stream); r.Len() > 0; {
		ft, payload, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if ft == FrameRefBatch {
			p := binenc.NewReader(payload)
			_, _ = p.Str(), p.Uvarint()
			shapes = append(shapes, p.Byte())
		}
	}
	if !bytes.Equal(shapes, []byte{0, 1, 2, 3, 0}) {
		t.Fatalf("ref frame shapes %v, want 0 1 2 3 0", shapes)
	}
	sum := sha256.Sum256(stream)
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Fatalf("client byte stream (%d bytes) hashes to %s, want %s", len(stream), got, golden)
	}
}
