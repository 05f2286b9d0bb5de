package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
// and both decode to batches identical to what was sent.
func TestDictRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	d := newClientDict(&buf)
	in := sampleBatch()
	for round := 0; round < 2; round++ {
		buf.Reset()
		if err := d.send(in); err != nil {
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
					if err := newClientDict(&dbuf).send(in); err != nil {
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
	if err := newClientDict(&buf).send(in); err != nil {
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
	t.Run("dict-full", func(t *testing.T) {
		cd := NewConnDict()
		past := appendDef(binenc.AppendUvarint(nil, 1), dictRefLimit, rec)
		if _, err := cd.AddDefs(past); !errors.Is(err, ErrDictFull) {
			t.Fatalf("want ErrDictFull, got %v", err)
		}
		if len(cd.defs) != 0 {
			t.Fatalf("refused definition grew the table to %d slots", len(cd.defs))
		}
	})

	// A ref batch over a defined dictionary: refs 7, 7, 7 with 2, 0 and 3
	// samples at mixed timestamps, so both optional columns are present.
	cd := NewConnDict()
	if _, err := cd.AddDefs(def); err != nil {
		t.Fatal(err)
	}
	multi := *rec
	multi.Samples = []metric.Sample{{T: 10, V: 1}, {T: 20, V: 2}}
	triple := *rec
	triple.Samples = []metric.Sample{{T: 5, V: 3}, {T: 6, V: 4}, {T: 7, V: 5}}
	good := appendRefBatch(nil, &Batch{Agent: "a", Records: []Record{multi, *rec, triple}}, map[string]uint64{rec.ID.Key(): 7})
	if b, err := cd.DecodeRefBatch(good); err != nil || len(b.Records) != 3 {
		t.Fatalf("valid ref batch refused: %v", err)
	}
	t.Run("truncated-batch", func(t *testing.T) {
		for cut := 0; cut < len(good); cut++ {
			if _, err := cd.DecodeRefBatch(good[:cut]); err == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(good))
			}
		}
	})
	t.Run("trailing-bytes-batch", func(t *testing.T) {
		if _, err := cd.DecodeRefBatch(append(append([]byte(nil), good...), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
	t.Run("reserved-shape-bits", func(t *testing.T) {
		for bit := byte(4); bit != 0; bit <<= 1 {
			bad := append([]byte(nil), good...)
			bad[len("a")+2] |= bit
			if _, err := cd.DecodeRefBatch(bad); err == nil || !strings.Contains(err.Error(), "shape") {
				t.Fatalf("shape bit %#02x: %v", bit, err)
			}
		}
	})
	// 4096 records each claiming as many samples as the value column could
	// hold on its own: every count passes the per-record check, their sum is
	// 4096 times what the payload holds. It must be refused before the sample
	// slice is made — allocating it first would take 8 GiB here.
	t.Run("summed-count", func(t *testing.T) {
		const records, each = 4096, 1 << 17
		bad := binenc.AppendUvarint(binenc.AppendString(nil, "a"), records)
		bad = binenc.AppendVarint(append(bad, shapeCounts), 0)
		bad = append(bad, 14) // ref 7
		bad = append(bad, make([]byte, records-1)...)
		for i := 0; i < records; i++ {
			bad = binenc.AppendUvarint(bad, each)
		}
		bad = append(bad, make([]byte, each*8)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := cd.DecodeRefBatch(bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("count column summing past the payload accepted")
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("refusing the batch allocated %d bytes", grew)
		}
		// One record with that count is what the bytes can hold: accepted.
		ok := binenc.AppendUvarint(binenc.AppendString(nil, "a"), 1)
		ok = binenc.AppendVarint(append(ok, shapeCounts), 0)
		ok = binenc.AppendUvarint(append(ok, 14), each)
		ok = append(ok, make([]byte, each*8)...)
		if b, err := cd.DecodeRefBatch(ok); err != nil || len(b.Records[0].Samples) != each {
			t.Fatalf("plausible count refused: %v", err)
		}
	})
}

// TestRefBatchMatchesV1Property: whatever batch goes in — records with no,
// one or many samples, refs in any order, a series twice, timestamps whose
// deltas wrap int64, NaN payloads, -0 — the ref frame decodes to what the v1
// frame it replaced decoded to: the input batch bit for bit, an empty record
// with nil Samples. The generator reaches all four shapes.
func TestRefBatchMatchesV1Property(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	edgeT := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64, -1, 0, 1, 1_700_000_000_000}
	edgeV := []float64{math.Copysign(0, -1), 0, math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7FF8_0000_0000_0001), math.Float64frombits(0xFFF0_0000_DEAD_BEEF)}
	shapes := map[byte]int{}
	for iter := 0; iter < 2000; iter++ {
		// A dictionary of a few series under scattered refs.
		pool := make([]Record, 1+rng.Intn(6))
		refs := map[string]uint64{}
		defs := binenc.AppendUvarint(nil, uint64(len(pool)))
		for i, ref := range rng.Perm(5000)[:len(pool)] {
			pool[i] = Record{
				ID:   metric.ID{Name: "m", Labels: metric.NewLabels("series", fmt.Sprint(i))},
				Kind: metric.Kind(rng.Intn(2)), Unit: metric.UnitWatt,
			}
			refs[pool[i].ID.Key()] = uint64(ref)
			defs = appendDef(defs, uint64(ref), &pool[i])
		}
		oneEach, oneT := rng.Intn(2) == 0, rng.Intn(2) == 0
		baseT := edgeT[rng.Intn(len(edgeT))]
		in := &Batch{Agent: "agent"}
		for r, n := 0, rng.Intn(10); r < n; r++ {
			rec := pool[rng.Intn(len(pool))]
			count := 1
			if !oneEach {
				count = []int{0, 1, 1 + rng.Intn(40)}[rng.Intn(3)]
			}
			for ; count > 0; count-- {
				sm := metric.Sample{T: baseT, V: edgeV[rng.Intn(len(edgeV))]}
				if rng.Intn(3) == 0 {
					sm.V = rng.NormFloat64() * 1e3
				}
				switch {
				case oneT:
				case rng.Intn(2) == 0:
					sm.T = edgeT[rng.Intn(len(edgeT))]
				default:
					sm.T = int64(rng.Uint64())
				}
				rec.Samples = append(rec.Samples, sm)
			}
			in.Records = append(in.Records, rec)
		}

		payload := appendRefBatch(nil, in, refs)
		p := binenc.NewReader(payload)
		_, _ = p.Str(), p.Uvarint()
		shapes[p.Byte()]++

		cd := NewConnDict()
		if _, err := cd.AddDefs(defs); err != nil {
			t.Fatal(err)
		}
		got, err := cd.DecodeRefBatch(payload)
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		want := &Batch{Agent: in.Agent, Records: append([]Record(nil), in.Records...)}
		for i := range want.Records {
			if len(want.Records[i].Samples) == 0 {
				want.Records[i].Samples = nil
			}
		}
		if !batchesEqual(want, got) {
			t.Fatalf("iteration %d: ref frame decodes differently from its input:\n got  %+v\n want %+v", iter, got, want)
		}
		for i := range want.Records {
			if (want.Records[i].Samples == nil) != (got.Records[i].Samples == nil) {
				t.Fatalf("iteration %d record %d: nil-ness of an empty sample run differs", iter, i)
			}
		}
	}
	for shape := byte(0); shape < 4; shape++ {
		if shapes[shape] == 0 {
			t.Errorf("shape %02b never generated (saw %v)", shape, shapes)
		}
	}
	if len(shapes) != 4 {
		t.Errorf("encoder produced a shape outside the four defined: %v", shapes)
	}
}

// fleetRound is one collection round of the benchmark's synthetic fleet:
// agents batches of sensors one-sample records, every sample at t, series
// named the way bench/gen names them.
func fleetRound(agents, sensors int, t int64) []*Batch {
	round := make([]*Batch, agents)
	for a := range round {
		b := &Batch{Agent: fmt.Sprintf("a%04d", a)}
		for s := 0; s < sensors; s++ {
			b.Records = append(b.Records, Record{
				ID: metric.NewID(fmt.Sprintf("sensor_%02d", s),
					metric.NewLabels("node", fmt.Sprintf("n%04d", a), "rack", fmt.Sprintf("r%02d", a/16))),
				Kind: metric.Gauge, Unit: metric.UnitWatt,
				Samples: []metric.Sample{{T: t, V: 200 + float64(a*sensors+s)/10}},
			})
		}
		round[a] = b
	}
	return round
}

// synthT0 is bench/gen's SynthClock origin: timestamps of this size are what
// the benchmark ships.
const synthT0 = 472222 * 3600 * 1000

// TestRefBatchWireSize gates bytes per sample on the benchmark's two batch
// shapes, frame headers included, once the dictionary is negotiated. It is a
// count, so it repeats exactly; the row-oriented frame read 17.56 and 16.88.
func TestRefBatchWireSize(t *testing.T) {
	for _, tc := range []struct {
		agents, sensors int
		budget          float64
	}{
		{128, 32, 10.0}, // ingest_interval, cluster_rf2: 128 agents share a connection
		{1, 925, 9.1},   // analyze_grid: one simulated centre, one batch a round
	} {
		var buf bytes.Buffer
		d := newClientDict(&buf)
		for tick := int64(0); tick < 2; tick++ {
			buf.Reset() // keep the second round: no dictionary frames left in it
			for _, b := range fleetRound(tc.agents, tc.sensors, synthT0+tick*10_000) {
				if err := d.send(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		per := float64(buf.Len()) / float64(tc.agents*tc.sensors)
		t.Logf("%d x %d: %d bytes a round, %.4f B/sample", tc.agents, tc.sensors, buf.Len(), per)
		if per > tc.budget {
			t.Errorf("%d x %d: %.4f wire bytes per sample, budget %.1f", tc.agents, tc.sensors, per, tc.budget)
		}
	}
}

// TestDictClientServerEndToEnd runs the dictionary protocol through the real
// server: a client's batches arrive at the handler identical to what was
// sent, the server counts defs and ref batches, and a redial implicitly
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
	for i, b := range got {
		if !batchesEqual(in, b) {
			t.Fatalf("batch %d arrived different from what was sent", i)
		}
	}
	mu.Unlock()

	// A peer still speaking version 2 — the row-oriented layout — fails at its
	// first frame: the connection drops, counted and logged.
	var logged lockedBuffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	defs := dictFuzzSeeds()[0].defs
	var frame bytes.Buffer
	if err := WriteFrame(&frame, FrameDict, defs); err != nil {
		t.Fatal(err)
	}
	frame.Bytes()[2] = 2
	old, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if _, err := old.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := old.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server kept a version-2 connection open: %v", err)
	}
	if n := srv.Errors(); n != 1 {
		t.Fatalf("server counted %d errors, want 1", n)
	}
	if line := logged.String(); !strings.Contains(line, "dropped") || !strings.Contains(line, ErrBadVersion.Error()) {
		t.Fatalf("log line for the refused frame: %q", line)
	}
	if defs := srv.DictDefs(); defs != 2*uint64(len(in.Records)) {
		t.Fatalf("a refused dictionary frame defined series: %d", defs)
	}
}

// TestRefBatchBeforeDictionary: a ref batch on a connection that never sent
// a dictionary frame references undefined series, and is dropped as such.
func TestRefBatchBeforeDictionary(t *testing.T) {
	var handled atomic.Uint64
	srv, err := NewServer("127.0.0.1:0", func(*Batch) { handled.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	seeds := dictFuzzSeeds()
	if err := WriteFrame(raw, FrameRefBatch, seeds[0].batch); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server kept the connection open: %v", err)
	}
	if srv.Errors() != 1 || srv.Batches() != 0 || handled.Load() != 0 {
		t.Fatalf("errors %d, batches %d, handled %d: want the connection dropped and nothing delivered",
			srv.Errors(), srv.Batches(), handled.Load())
	}
}

// lockedBuffer is a log sink the server's goroutines and the test share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDictFullRedials: a sender about to assign a ref past the bound fails
// the Send with ErrDictFull before writing anything, the retry redials into
// an empty dictionary, and the batch lands exactly once. The server end
// refuses such a definition and counts the dropped connection.
func TestDictFullRedials(t *testing.T) {
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

	first, churned := sampleBatch(), sampleBatch()
	churned.Agent = "churned"
	for i := range churned.Records {
		churned.Records[i].ID.Name += "_new"
	}
	if err := cl.Send(first); err != nil {
		t.Fatal(err)
	}
	cl.dict.next = dictRefLimit - 2 // one ref left, the batch needs three
	// What WireSink.Consume does: send, and on error send again.
	if err := cl.Send(churned); !errors.Is(err, ErrDictFull) {
		t.Fatalf("send past the bound: %v, want ErrDictFull", err)
	}
	if err := cl.Send(churned); err != nil {
		t.Fatal(err)
	}
	if cl.Redials() != 1 || cl.dict.next != uint64(len(churned.Records)) {
		t.Fatalf("redials %d, next ref %d: want a fresh dictionary after one redial", cl.Redials(), cl.dict.next)
	}

	// Server end: a hand-built definition at the bound drops the connection.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	past := appendDef(binenc.AppendUvarint(nil, 1), dictRefLimit, &first.Records[0])
	if err := WriteFrame(raw, FrameDict, past); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server kept the connection open: %v", err)
	}
	if n := srv.Errors(); n != 1 {
		t.Fatalf("server counted %d errors, want 1 (the client-side refusal costs the server none)", n)
	}

	// Closing the client and then the server drains both of the client's
	// connections: whatever was going to arrive has arrived. They are served
	// by two goroutines, so the two batches may land in either order.
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	copies := map[string]int{}
	for _, b := range got {
		want := map[string]*Batch{first.Agent: first, churned.Agent: churned}[b.Agent]
		if want == nil || !batchesEqual(want, b) {
			t.Fatalf("batch from %q arrived different from what was sent", b.Agent)
		}
		copies[b.Agent]++
	}
	if len(copies) != 2 || copies[first.Agent] != 1 || copies[churned.Agent] != 1 || srv.Batches() != 2 {
		t.Fatalf("copies landed per batch: %v (%d batches counted), want one each", copies, srv.Batches())
	}
}

// TestV1BatchFrameRefused: a peer still sending the retired v1 batch frame
// fails at its first frame — the connection drops, the error is counted and
// the log names the frame — and nothing reaches the handler.
func TestV1BatchFrameRefused(t *testing.T) {
	var handled atomic.Uint64
	srv, err := NewServer("127.0.0.1:0", func(*Batch) { handled.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var logged lockedBuffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var frame bytes.Buffer
	if err := WriteFrame(&frame, FrameBatch, appendV1Batch(nil, sampleBatch())); err != nil {
		t.Fatal(err)
	}
	// One write: the server reads the whole frame before it hangs up, so the
	// close is a clean EOF rather than a reset over unread bytes.
	if _, err := raw.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server kept a v1 connection open: %v", err)
	}
	if srv.Errors() != 1 || srv.Batches() != 0 || handled.Load() != 0 {
		t.Fatalf("errors %d, batches %d, handled %d: want the connection dropped and nothing delivered",
			srv.Errors(), srv.Batches(), handled.Load())
	}
	if line := logged.String(); !strings.Contains(line, "dropped") || !strings.Contains(line, ErrBatchFrameRetired.Error()) {
		t.Fatalf("log line for the refused frame: %q", line)
	}
}
