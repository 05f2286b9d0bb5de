package wire

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

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

func TestBatchRoundTrip(t *testing.T) {
	in := sampleBatch()
	payload := EncodeBatch(in)
	out, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Agent, out.Agent) {
		t.Fatalf("agent %q vs %q", in.Agent, out.Agent)
	}
	if len(out.Records) != len(in.Records) {
		t.Fatalf("records = %d", len(out.Records))
	}
	for i := range in.Records {
		a, b := in.Records[i], out.Records[i]
		if a.ID.Key() != b.ID.Key() || a.Kind != b.Kind || a.Unit != b.Unit {
			t.Fatalf("record %d header mismatch: %+v vs %+v", i, a, b)
		}
		if len(a.Samples) != len(b.Samples) {
			t.Fatalf("record %d sample count", i)
		}
		for j := range a.Samples {
			if a.Samples[j].T != b.Samples[j].T {
				t.Fatalf("record %d sample %d T", i, j)
			}
			av, bv := a.Samples[j].V, b.Samples[j].V
			if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
				t.Fatalf("record %d sample %d V: %v vs %v", i, j, av, bv)
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello telemetry")
	if err := WriteFrame(&buf, FrameBatch, payload); err != nil {
		t.Fatal(err)
	}
	ft, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameBatch || !bytes.Equal(got, payload) {
		t.Fatalf("frame = %d %q", ft, got)
	}
}

func TestFrameValidation(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, FrameBatch, []byte("payload"))
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
		t.Fatalf("batch frame at version 3: %v", err)
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

	if err := WriteFrame(&buf, FrameBatch, make([]byte, MaxPayload+1)); err != ErrTooLarge {
		t.Fatalf("oversize write: %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	payload := EncodeBatch(sampleBatch())
	for cut := 0; cut < len(payload); cut += 3 {
		if _, err := DecodeBatch(payload[:cut]); err == nil && cut < len(payload) {
			// Some prefixes may decode as a smaller valid batch only if the
			// structure allows; with our layout a strict prefix must fail
			// except for the complete payload.
			t.Fatalf("truncated payload at %d decoded successfully", cut)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		junk := make([]byte, rng.Intn(200))
		rng.Read(junk)
		// Must not panic; error or lucky success are both fine.
		_, _ = DecodeBatch(junk)
	}
}

func TestBatchRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := &Batch{Agent: "agent"}
		for r := 0; r < 1+rng.Intn(5); r++ {
			rec := Record{
				ID:   metric.ID{Name: "m", Labels: metric.NewLabels("node", string(rune('a'+rng.Intn(26))))},
				Kind: metric.Kind(rng.Intn(2)),
				Unit: metric.UnitWatt,
			}
			tcur := rng.Int63n(1 << 40)
			for s := 0; s < rng.Intn(50); s++ {
				tcur += int64(rng.Intn(100000))
				rec.Samples = append(rec.Samples, metric.Sample{T: tcur, V: rng.NormFloat64() * 1e3})
			}
			b.Records = append(b.Records, rec)
		}
		out, err := DecodeBatch(EncodeBatch(b))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(b, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
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

func TestDecodeHugeVarintLength(t *testing.T) {
	// A payload whose string length varint far exceeds the buffer (and
	// would overflow int if converted blindly) must error, not panic.
	payload := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := DecodeBatch(payload); err == nil {
		t.Fatal("huge length should error")
	}
}

// TestAppendBatchMatchesEncodeBatch pins the append-style encoder to the
// allocate-per-call one: same bytes, dst extended in place.
func TestAppendBatchMatchesEncodeBatch(t *testing.T) {
	batch := sampleBatch()
	want := EncodeBatch(batch)
	got := AppendBatch(nil, batch)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendBatch(nil) diverges from EncodeBatch:\n  got  %x\n  want %x", got, want)
	}
	prefix := []byte{0xde, 0xad}
	ext := AppendBatch(prefix, batch)
	if !bytes.Equal(ext[:2], prefix) || !bytes.Equal(ext[2:], want) {
		t.Fatal("AppendBatch must append after existing dst contents")
	}
}

// TestAppendBatchZeroSteadyStateAllocs is the perf contract for the pooled
// encode path: once the reused buffer has grown to batch size, encoding
// (and a full BatchWriter send to a discarding stream) allocates nothing.
func TestAppendBatchZeroSteadyStateAllocs(t *testing.T) {
	batch := sampleBatch()
	buf := AppendBatch(nil, batch)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendBatch(buf[:0], batch)
	}); n != 0 {
		t.Fatalf("AppendBatch reuse: %.1f allocs/op, want 0", n)
	}
	bw := NewBatchWriter(io.Discard)
	if err := bw.Send(batch); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := bw.Send(batch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("BatchWriter.Send steady state: %.1f allocs/op, want 0", n)
	}
}
