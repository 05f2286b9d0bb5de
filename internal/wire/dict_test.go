package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/metric"
)

// batchesEqual compares decoded batches by identity, kind, unit and exact
// sample bits (NaN-safe), ignoring the unexported interned key on IDs.
func batchesEqual(a, b *Batch) bool {
	if a.Agent != b.Agent || len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		ra, rb := &a.Records[i], &b.Records[i]
		if ra.ID.Key() != rb.ID.Key() || ra.Kind != rb.Kind || ra.Unit != rb.Unit {
			return false
		}
		if len(ra.Samples) != len(rb.Samples) {
			return false
		}
		for j := range ra.Samples {
			if ra.Samples[j].T != rb.Samples[j].T ||
				math.Float64bits(ra.Samples[j].V) != math.Float64bits(rb.Samples[j].V) {
				return false
			}
		}
	}
	return true
}

// TestDictRoundTrip drives the client encoder against the server decoder
// directly: the first batch defines every series, the second defines none,
// and both decode to batches identical to their v1 counterparts.
func TestDictRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := NewBatchWriter(&buf)
	d := newClientDict()
	in := sampleBatch()
	for round := 0; round < 2; round++ {
		buf.Reset()
		if err := d.sendDict(bw, in); err != nil {
			t.Fatal(err)
		}
		cd := NewConnDict()
		var got *Batch
		r := bytes.NewReader(buf.Bytes())
		for {
			ft, payload, err := ReadFrame(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			switch ft {
			case FrameDict:
				if round == 1 {
					t.Fatal("second send re-defined already-defined series")
				}
				n, err := cd.AddDefs(payload)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(in.Records) {
					t.Fatalf("defined %d series, want %d", n, len(in.Records))
				}
			case FrameRefBatch:
				if round == 1 {
					// Fresh decoder each round: replay round 0's defs first,
					// the way a real connection's dictionary accumulates.
					var dbuf bytes.Buffer
					dbw := NewBatchWriter(&dbuf)
					d0 := newClientDict()
					if err := d0.sendDict(dbw, in); err != nil {
						t.Fatal(err)
					}
					ft0, defs0, err := ReadFrame(bytes.NewReader(dbuf.Bytes()))
					if err != nil || ft0 != FrameDict {
						t.Fatalf("no defs frame to replay: %v", err)
					}
					if _, err := cd.AddDefs(defs0); err != nil {
						t.Fatal(err)
					}
				}
				b, err := cd.DecodeRefBatch(payload)
				if err != nil {
					t.Fatal(err)
				}
				got = b
			default:
				t.Fatalf("unexpected frame type %d", ft)
			}
		}
		if got == nil || !batchesEqual(in, got) {
			t.Fatalf("round %d: decoded ref batch differs from input", round)
		}
	}
}

// TestDictDuplicateIDsInOneBatch: a batch holding two records for the same
// new series must define it exactly once and still decode both records.
func TestDictDuplicateIDsInOneBatch(t *testing.T) {
	id := metric.ID{Name: "power", Labels: metric.NewLabels("node", "n1")}
	in := &Batch{
		Agent: "a",
		Records: []Record{
			{ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, Samples: []metric.Sample{{T: 1, V: 1}}},
			{ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt, Samples: []metric.Sample{{T: 2, V: 2}}},
		},
	}
	var buf bytes.Buffer
	bw := NewBatchWriter(&buf)
	d := newClientDict()
	if err := d.sendDict(bw, in); err != nil {
		t.Fatal(err)
	}
	cd := NewConnDict()
	r := bytes.NewReader(buf.Bytes())
	ft, payload, err := ReadFrame(r)
	if err != nil || ft != FrameDict {
		t.Fatalf("want dict frame, got %d (%v)", ft, err)
	}
	if n, err := cd.AddDefs(payload); err != nil || n != 1 {
		t.Fatalf("want exactly 1 def, got %d (%v)", n, err)
	}
	ft, payload, err = ReadFrame(r)
	if err != nil || ft != FrameRefBatch {
		t.Fatalf("want ref batch frame, got %d (%v)", ft, err)
	}
	got, err := cd.DecodeRefBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !batchesEqual(in, got) {
		t.Fatal("duplicate-ID batch did not round-trip")
	}
}

// TestConnDictProtocolErrors pins the hard-failure cases: redefined refs,
// undefined refs, truncated dictionaries and trailing garbage all error
// (dropping the connection) instead of guessing.
func TestConnDictProtocolErrors(t *testing.T) {
	rec := &Record{ID: metric.ID{Name: "p", Labels: metric.NewLabels("n", "1")}, Kind: metric.Gauge, Unit: metric.UnitWatt}
	def := appendDef(binenc.AppendUvarint(nil, 1), 7, rec)

	t.Run("redefine", func(t *testing.T) {
		cd := NewConnDict()
		if _, err := cd.AddDefs(def); err != nil {
			t.Fatal(err)
		}
		if _, err := cd.AddDefs(def); !errors.Is(err, ErrDictRedefine) {
			t.Fatalf("want ErrDictRedefine, got %v", err)
		}
	})
	t.Run("undefined-ref", func(t *testing.T) {
		cd := NewConnDict()
		payload := appendRefBatch(nil, &Batch{Agent: "a", Records: []Record{*rec}}, map[string]uint64{rec.ID.Key(): 99})
		if _, err := cd.DecodeRefBatch(payload); !errors.Is(err, ErrUnknownRef) {
			t.Fatalf("want ErrUnknownRef, got %v", err)
		}
	})
	t.Run("truncated-dict", func(t *testing.T) {
		for cut := 1; cut < len(def); cut++ {
			cd := NewConnDict()
			if _, err := cd.AddDefs(def[:cut]); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		cd := NewConnDict()
		if _, err := cd.AddDefs(append(append([]byte(nil), def...), 0xAB)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
	t.Run("huge-count", func(t *testing.T) {
		cd := NewConnDict()
		if _, err := cd.AddDefs(binenc.AppendUvarint(nil, 1<<40)); err == nil {
			t.Fatal("implausible def count accepted")
		}
	})
}

// TestDictClientServerEndToEnd runs the v2 protocol through the real server:
// a dict-enabled client's batches arrive at the handler identical to v1
// batches, the server counts defs and ref batches, and a redial implicitly
// renegotiates (the series re-define on the new connection).
func TestDictClientServerEndToEnd(t *testing.T) {
	var mu sync.Mutex
	var got []*Batch
	srv, err := NewServer("127.0.0.1:0", func(b *Batch) {
		mu.Lock()
		got = append(got, b)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.EnableDict()
	cl.SetTimeout(5 * time.Second)

	in := sampleBatch()
	if err := cl.Send(in); err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(in); err != nil {
		t.Fatal(err)
	}
	waitFor := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			have := len(got)
			mu.Unlock()
			if have >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %d batches (have %d)", n, have)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(2)
	if defs := srv.DictDefs(); defs != uint64(len(in.Records)) {
		t.Fatalf("server counted %d defs, want %d (no renegotiation yet)", defs, len(in.Records))
	}
	if rb := srv.RefBatches(); rb != 2 {
		t.Fatalf("server counted %d ref batches, want 2", rb)
	}

	// Kill the transport under the client. The first Send surfaces the
	// transport error and marks the connection broken; the retry redials,
	// and the fresh connection must renegotiate the dictionary from scratch.
	cl.conn.Close()
	if err := cl.Send(in); err == nil {
		t.Fatal("send on a killed transport reported success")
	}
	if err := cl.Send(in); err != nil {
		t.Fatal(err)
	}
	waitFor(3)
	if redials := cl.Redials(); redials == 0 {
		t.Fatal("client never redialed")
	}
	if defs := srv.DictDefs(); defs != 2*uint64(len(in.Records)) {
		t.Fatalf("server counted %d defs after redial, want %d", defs, 2*len(in.Records))
	}
	mu.Lock()
	defer mu.Unlock()
	for i, b := range got {
		if !batchesEqual(in, b) {
			t.Fatalf("batch %d arrived different from what was sent", i)
		}
	}
}

// TestV1ClientStillWorks: a v1 client against the same server decodes
// unchanged — the two protocols coexist per connection.
func TestV1ClientStillWorks(t *testing.T) {
	var mu sync.Mutex
	var got []*Batch
	srv, err := NewServer("127.0.0.1:0", func(b *Batch) {
		mu.Lock()
		got = append(got, b)
		mu.Unlock()
	})
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
	if err := cl.Send(in); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		have := len(got)
		mu.Unlock()
		if have == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.DictDefs() != 0 || srv.RefBatches() != 0 {
		t.Fatal("v1 client produced v2 counters")
	}
	mu.Lock()
	defer mu.Unlock()
	if !batchesEqual(in, got[0]) {
		t.Fatal("v1 batch changed in transit")
	}
}
