package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// flatSample is one sample with its series identity: what a sink receives,
// with the record boundaries of the batch it came in gone.
type flatSample struct {
	key   string
	kind  metric.Kind
	unit  metric.Unit
	t     int64
	vbits uint64
}

// flatten lists b's samples in frame order.
func flatten(b *Batch) []flatSample {
	var out []flatSample
	for _, r := range b.Records {
		for _, sm := range r.Samples {
			out = append(out, flatSample{r.ID.Key(), r.Kind, r.Unit, sm.T, math.Float64bits(sm.V)})
		}
	}
	return out
}

func sameSamples(a, b []flatSample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// appendFunc is a Sink for tests that only watch appends: every series
// resolves to ref 1, and each batch's entries go to the function.
type appendFunc func([]timeseries.RefEntry)

func (appendFunc) Resolve(metric.ID, metric.Kind, metric.Unit) (timeseries.SeriesRef, error) {
	return 1, nil
}

func (f appendFunc) AppendRefs(entries []timeseries.RefEntry) (int, error) {
	f(entries)
	return len(entries), nil
}

func (appendFunc) RefEpoch() uint64 { return 0 }

// recordSink is a Sink that keeps what it is given: every Resolve as a new
// ref (so it counts resolves per connection, not per series), and every
// AppendRefs call as one batch of flat samples. Refs carry the sink's epoch
// the way a store's do; an entry from another epoch is refused as stale.
type recordSink struct {
	mu         sync.Mutex
	epoch      uint64
	defs       []Record // ref slot-1 → series
	batches    [][]flatSample
	stale      int
	failResolv error // Resolve refuses while set
}

func (s *recordSink) Resolve(id metric.ID, kind metric.Kind, unit metric.Unit) (timeseries.SeriesRef, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failResolv != nil {
		return 0, s.failResolv
	}
	s.defs = append(s.defs, Record{ID: id, Kind: kind, Unit: unit})
	return timeseries.SeriesRef(s.epoch<<32 | uint64(len(s.defs))), nil
}

func (s *recordSink) AppendRefs(entries []timeseries.RefEntry) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var got []flatSample
	for _, e := range entries {
		if e.Ref.Epoch() != s.epoch || e.Ref.Slot() == 0 || int(e.Ref.Slot()) > len(s.defs) {
			s.stale++
			continue
		}
		r := &s.defs[e.Ref.Slot()-1]
		got = append(got, flatSample{r.ID.Key(), r.Kind, r.Unit, e.T, math.Float64bits(e.V)})
	}
	s.batches = append(s.batches, got)
	return len(got), nil
}

func (s *recordSink) RefEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// snapshot returns how many resolves and batches the sink has seen, and the
// batches.
func (s *recordSink) snapshot() (resolves int, batches [][]flatSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.defs), append([][]flatSample(nil), s.batches...)
}

// synced sends b and waits for the server to have handled it: a pong is
// answered only after every frame before it on the connection.
func synced(t *testing.T, c *Client, b *Batch) {
	t.Helper()
	if err := c.Send(b); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestResolveOncePerDefinitionPerConnection: a connection resolves each
// series it defines once, when the first batch carries a sample of it, in
// record order; later batches append by the refs it already holds. A second
// connection resolves its own definitions again, and a record with no
// samples resolves nothing.
func TestResolveOncePerDefinitionPerConnection(t *testing.T) {
	sink := &recordSink{}
	srv, err := NewServer("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	in := sampleBatch() // three series, the last with no samples
	for conn := 1; conn <= 2; conn++ {
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			synced(t, cl, in)
		}
		cl.Close()
		resolves, batches := sink.snapshot()
		if resolves != 2*conn || len(batches) != 3*conn {
			t.Fatalf("after connection %d: %d resolves, %d batches; want %d and %d", conn, resolves, len(batches), 2*conn, 3*conn)
		}
		for i, b := range batches {
			if !sameSamples(b, flatten(in)) {
				t.Fatalf("batch %d arrived as %v, want %v", i, b, flatten(in))
			}
		}
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, want := range []string{"power", "energy", "power", "energy"} {
		if got := sink.defs[i].ID.Name; got != want {
			t.Fatalf("resolve %d was %q, want %q: the order the batches carry them", i, got, want)
		}
	}
}

// TestRefEpochChangeReResolves: when the sink's RefEpoch moves (a store
// swapped under it), the connection resolves its series again before the
// next append, so no entry carries a ref of the old epoch.
func TestRefEpochChangeReResolves(t *testing.T) {
	sink := &recordSink{epoch: 7}
	srv, err := NewServer("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	in := sampleBatch()
	synced(t, cl, in)
	sink.mu.Lock()
	sink.epoch, sink.defs = 8, nil
	sink.mu.Unlock()
	synced(t, cl, in)
	synced(t, cl, in)
	resolves, batches := sink.snapshot()
	if resolves != 2 || len(batches) != 3 || sink.stale != 0 {
		t.Fatalf("%d resolves in the new epoch, %d batches, %d stale entries; want 2, 3 and 0", resolves, len(batches), sink.stale)
	}
	for i, b := range batches {
		if !sameSamples(b, flatten(in)) {
			t.Fatalf("batch %d arrived as %v", i, b)
		}
	}
}

// TestFailedResolveDropsBatchKeepsConnection: a sink that cannot resolve a
// series (closed, WAL error) costs the batch, not the connection: nothing is
// appended, no protocol error is counted, the same connection answers the
// next ping, and its next batch resolves and lands.
func TestFailedResolveDropsBatchKeepsConnection(t *testing.T) {
	sink := &recordSink{failResolv: errors.New("store closed")}
	srv, err := NewServer("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	in := sampleBatch()
	synced(t, cl, in)
	if resolves, batches := sink.snapshot(); resolves != 0 || len(batches) != 0 {
		t.Fatalf("a refused resolve appended: %d resolves, %d batches", resolves, len(batches))
	}
	if srv.Errors() != 0 || srv.Batches() != 1 {
		t.Fatalf("errors %d, batches %d: want the frame counted and the connection kept", srv.Errors(), srv.Batches())
	}
	sink.mu.Lock()
	sink.failResolv = nil
	sink.mu.Unlock()
	synced(t, cl, in)
	resolves, batches := sink.snapshot()
	if resolves != 2 || len(batches) != 1 || !sameSamples(batches[0], flatten(in)) {
		t.Fatalf("after the sink recovered: %d resolves, batches %v", resolves, batches)
	}
	if cl.Redials() != 0 {
		t.Fatalf("the client redialled %d times: the server dropped the connection", cl.Redials())
	}
}

// serveStream runs the server's frame loop over a captured client stream
// into sink and returns the first error, as serveConn would drop the
// connection on it (io.EOF at the stream's end).
func serveStream(sink Sink, stream []byte) error {
	s := &Server{sink: sink}
	c := &serverConn{r: bufio.NewReader(bytes.NewReader(stream))}
	for {
		if _, _, err := s.serveFrame(c); err != nil {
			return err
		}
	}
}

// TestServerPathMatchesDecodeRefBatch: the frame loop odad runs — one read
// buffer, the column decoder, resolve, AppendRefs — lands the same samples
// DecodeRefBatch returns, frame for frame, over the stream a client wrote
// before ref runs and decimal values existed and over the one it writes now.
func TestServerPathMatchesDecodeRefBatch(t *testing.T) {
	old, err := os.ReadFile("testdata/refbatch-raw-values.stream")
	if err != nil {
		t.Fatal(err)
	}
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
	for name, stream := range map[string][]byte{"raw-values": old, "current": conn.buf.Bytes()} {
		var want [][]flatSample
		cd := NewConnDict()
		for r := bytes.NewReader(stream); r.Len() > 0; {
			ft, payload, err := ReadFrame(r)
			if err != nil {
				t.Fatal(err)
			}
			if ft == FrameDict {
				_, err = cd.AddDefs(payload)
			} else {
				var b *Batch
				b, err = cd.DecodeRefBatch(payload)
				want = append(want, flatten(b))
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		sink := &recordSink{}
		if err := serveStream(sink, stream); err != io.EOF {
			t.Fatalf("%s: the server path stopped at %v", name, err)
		}
		_, got := sink.snapshot()
		if len(got) != len(want) || len(want) != len(goldenBatches()) {
			t.Fatalf("%s: %d batches landed, DecodeRefBatch decoded %d", name, len(got), len(want))
		}
		for i := range want {
			if !sameSamples(got[i], want[i]) {
				t.Fatalf("%s: batch %d landed as %v, DecodeRefBatch decoded %v", name, i, got[i], want[i])
			}
		}
	}
}

// checkServerParity is FuzzDictDecode's parity property: the server path and
// DecodeRefBatch, each on a dictionary fed defs, refuse batch with the same
// error or land the same samples.
func checkServerParity(t *testing.T, defs, batch []byte, view *Batch, viewErr error) {
	t.Helper()
	dict := NewConnDict()
	_, _ = dict.AddDefs(defs)
	sink := &recordSink{}
	err := (&Server{sink: sink}).refBatch(dict, batch)
	if (err == nil) != (viewErr == nil) || (err != nil && err.Error() != viewErr.Error()) {
		t.Fatalf("server path error %v, DecodeRefBatch error %v", err, viewErr)
	}
	if err != nil {
		return
	}
	_, got := sink.snapshot()
	if len(got) != 1 || !sameSamples(got[0], flatten(view)) {
		t.Fatalf("server path landed %v, DecodeRefBatch decoded %v", got, flatten(view))
	}
}
