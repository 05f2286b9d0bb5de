package timeseries

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/metric"
)

func TestBitStreamRoundTrip(t *testing.T) {
	var w bitWriter
	w.writeBits(1, 1)
	w.writeBits(0b1011, 4)
	w.writeBits(0xDEADBEEF, 32)
	w.writeBits(1, 1)
	r := newBitReader(w.bytes())
	if b, _ := r.readBit(); !b {
		t.Fatal("bit 1")
	}
	if v, _ := r.readBits(4); v != 0b1011 {
		t.Fatalf("nibble = %b", v)
	}
	if v, _ := r.readBits(32); v != 0xDEADBEEF {
		t.Fatalf("word = %x", v)
	}
	if v, _ := r.readBits(1); v != 1 {
		t.Fatal("last bit")
	}
	// 38 bits written -> 2 padding bits remain in the final byte, then EOS.
	if _, err := r.readBits(2); err != nil {
		t.Fatal("padding bits should be readable")
	}
	if _, err := r.readBit(); err != ErrEOS {
		t.Fatal("expected EOS")
	}
}

func TestBitStream64(t *testing.T) {
	var w bitWriter
	w.writeBits(math.MaxUint64, 64)
	w.writeBits(0, 64)
	w.writeBits(1<<63, 64)
	r := newBitReader(w.bytes())
	for _, want := range []uint64{math.MaxUint64, 0, 1 << 63} {
		if v, err := r.readBits(64); err != nil || v != want {
			t.Fatalf("readBits(64) = %x, %v; want %x", v, err, want)
		}
	}
}

// rawChunk is a raw Chunk with the coder state its series would keep beside
// it (storedSeries.x, storedSeries.delta), for tests that write one directly.
type rawChunk struct {
	*Chunk
	x     colState
	delta int64
}

// newRawChunk returns an empty raw chunk, decimal-coded when dec is set.
func newRawChunk(dec bool) *rawChunk {
	c := &rawChunk{Chunk: NewChunk()}
	c.dec = dec
	return c
}

// Append adds a sample; timestamps must strictly increase.
func (c *rawChunk) Append(t int64, v float64) error { return c.append(t, v, &c.delta, &c.x, nil) }

func chunkRoundTrip(t *testing.T, samples []metric.Sample) {
	t.Helper()
	c := newRawChunk(false)
	for _, sm := range samples {
		if err := c.Append(sm.T, sm.V); err != nil {
			t.Fatalf("append(%d, %v): %v", sm.T, sm.V, err)
		}
	}
	if c.Count() != len(samples) {
		t.Fatalf("Count = %d, want %d", c.Count(), len(samples))
	}
	it := c.Iter()
	for i, want := range samples {
		if !it.Next() {
			t.Fatalf("iterator ended at %d/%d: %v", i, len(samples), it.Err())
		}
		got := it.At()
		if got.T != want.T {
			t.Fatalf("sample %d: T = %d, want %d", i, got.T, want.T)
		}
		if got.V != want.V && !(math.IsNaN(got.V) && math.IsNaN(want.V)) {
			t.Fatalf("sample %d: V = %v, want %v", i, got.V, want.V)
		}
	}
	if it.Next() {
		t.Fatal("iterator over-ran")
	}
	if it.Err() != nil {
		t.Fatalf("iterator error: %v", it.Err())
	}
}

func TestChunkRoundTripRegularCadence(t *testing.T) {
	samples := make([]metric.Sample, 200)
	for i := range samples {
		samples[i] = metric.Sample{T: int64(i) * 1000, V: 20 + math.Sin(float64(i)/10)}
	}
	chunkRoundTrip(t, samples)
}

func TestChunkRoundTripConstantValues(t *testing.T) {
	samples := make([]metric.Sample, 50)
	for i := range samples {
		samples[i] = metric.Sample{T: int64(i) * 60000, V: 42}
	}
	c := newRawChunk(false)
	for _, sm := range samples {
		if err := c.Append(sm.T, sm.V); err != nil {
			t.Fatal(err)
		}
	}
	// Constant series at fixed cadence compresses to near nothing beyond
	// the 16-byte header.
	if c.Bytes() > 16+20 {
		t.Fatalf("constant chunk too large: %d bytes", c.Bytes())
	}
	chunkRoundTrip(t, samples)
}

func TestChunkRoundTripIrregular(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]metric.Sample, 500)
	tcur := int64(1_700_000_000_000)
	for i := range samples {
		tcur += int64(1 + rng.Intn(100_000)) // jittery, sparse cadence
		samples[i] = metric.Sample{T: tcur, V: rng.NormFloat64() * 1e6}
	}
	chunkRoundTrip(t, samples)
}

func TestChunkSpecialFloats(t *testing.T) {
	samples := []metric.Sample{
		{T: 0, V: 0},
		{T: 1, V: math.Inf(1)},
		{T: 2, V: math.Inf(-1)},
		{T: 3, V: math.NaN()},
		{T: 4, V: -0.0},
		{T: 5, V: math.MaxFloat64},
		{T: 6, V: math.SmallestNonzeroFloat64},
		{T: 7, V: 1e-300},
	}
	chunkRoundTrip(t, samples)
}

func TestChunkLargeFirstDelta(t *testing.T) {
	// First delta beyond 14 bits exercises the wide branch.
	chunkRoundTrip(t, []metric.Sample{
		{T: 0, V: 1}, {T: 1 << 30, V: 2}, {T: 1<<30 + 60000, V: 3},
	})
}

func TestChunkRejectsOutOfOrder(t *testing.T) {
	c := newRawChunk(false)
	if err := c.Append(100, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(100, 2); err == nil {
		t.Fatal("duplicate timestamp accepted")
	}
	if err := c.Append(50, 2); err == nil {
		t.Fatal("rewind accepted")
	}
	if err := c.Append(101, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(90, 3); err == nil {
		t.Fatal("rewind after second sample accepted")
	}
}

func TestChunkMinMax(t *testing.T) {
	c := newRawChunk(false)
	for i, v := range []float64{5, -3, 8, 2} {
		if err := c.Append(int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if c.FirstTime() != 0 || c.LastTime() != 3 {
		t.Fatalf("times = %d..%d", c.FirstTime(), c.LastTime())
	}
}

func TestChunkCompressionBeatsRaw(t *testing.T) {
	// Realistic telemetry: 60 s cadence, slowly varying temperature.
	c := newRawChunk(false)
	rng := rand.New(rand.NewSource(2))
	v := 55.0
	for i := 0; i < 1000; i++ {
		v += rng.NormFloat64() * 0.1
		if err := c.Append(int64(i)*60000, math.Round(v*10)/10); err != nil {
			t.Fatal(err)
		}
	}
	raw := 16 * c.Count()
	if c.Bytes() >= raw/2 {
		t.Fatalf("compression too weak: %d of %d raw bytes", c.Bytes(), raw)
	}
}

// Property-based round trip across random sample patterns.
func TestChunkRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(300)
		c := newRawChunk(false)
		samples := make([]metric.Sample, n)
		tcur := rng.Int63n(1 << 40)
		for i := 0; i < n; i++ {
			if i > 0 {
				tcur += int64(1 + rng.Intn(1<<uint(1+rng.Intn(20))))
			}
			var v float64
			switch rng.Intn(4) {
			case 0:
				v = float64(rng.Intn(100))
			case 1:
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			case 2:
				v = 0
			default:
				v = rng.Float64()
			}
			samples[i] = metric.Sample{T: tcur, V: v}
			if err := c.Append(tcur, v); err != nil {
				return false
			}
		}
		it := c.Iter()
		for _, want := range samples {
			if !it.Next() {
				return false
			}
			got := it.At()
			if got.T != want.T || got.V != want.V {
				return false
			}
		}
		return !it.Next() && it.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sid(name, node string) metric.ID {
	return metric.ID{Name: name, Labels: metric.NewLabels("node", node)}
}

// collect materializes one series' samples in [from, to) through Each.
func collect(s *Store, id metric.ID, from, to int64) ([]metric.Sample, error) {
	var out []metric.Sample
	err := s.Each(id, from, to, func(sm metric.Sample) bool {
		out = append(out, sm)
		return true
	})
	return out, err
}

func TestStoreAppendQuery(t *testing.T) {
	s := NewStore(0)
	id := sid("power", "n0")
	for i := 0; i < 500; i++ {
		if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*1000, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumSeries() != 1 || s.NumSamples() != 500 {
		t.Fatalf("series/samples = %d/%d", s.NumSeries(), s.NumSamples())
	}
	got, err := collect(s, id, 100_000, 110_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0].V != 100 || got[9].V != 109 {
		t.Fatalf("window = %v", got)
	}
	all, err := collect(s, id, math.MinInt64, math.MaxInt64)
	if err != nil || len(all) != 500 {
		t.Fatalf("whole series len = %d, %v", len(all), err)
	}
	if _, err := collect(s, sid("power", "missing"), 0, 1); err == nil {
		t.Fatal("unknown series should error")
	}
	if err := s.Append(id, metric.Gauge, metric.UnitWatt, 100, 1); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}

func TestStoreLatestAndSnapshot(t *testing.T) {
	s := NewStore(10)
	for n := 0; n < 3; n++ {
		id := sid("temp", string(rune('a'+n)))
		for i := 0; i < 25; i++ {
			if err := s.Append(id, metric.Gauge, metric.UnitCelsius, int64(i), float64(n*100+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sm, ok := s.Latest(sid("temp", "b"))
	if !ok || sm.V != 124 {
		t.Fatalf("Latest = %v, %v", sm, ok)
	}
	if _, ok := s.Latest(sid("temp", "zz")); ok {
		t.Fatal("missing series should report absent")
	}
	snap := s.Snapshot("temp", nil)
	if len(snap) != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].ID.Key() <= snap[i-1].ID.Key() {
			t.Fatal("snapshot not sorted")
		}
	}
}

func TestStoreSelect(t *testing.T) {
	s := NewStore(0)
	_ = s.Append(sid("power", "n0"), metric.Gauge, metric.UnitWatt, 1, 1)
	_ = s.Append(sid("power", "n1"), metric.Gauge, metric.UnitWatt, 1, 1)
	_ = s.Append(sid("temp", "n0"), metric.Gauge, metric.UnitCelsius, 1, 1)
	if ids := s.Select("power", nil); len(ids) != 2 {
		t.Fatalf("Select(power) = %v", ids)
	}
	if ids := s.Select("", metric.NewLabels("node", "n0")); len(ids) != 2 {
		t.Fatalf("Select(node=n0) = %v", ids)
	}
	if ids := s.Select("", nil); len(ids) != 3 {
		t.Fatalf("Select(\"\", nil) = %v", ids)
	}
}

func TestStoreAggregate(t *testing.T) {
	s := NewStore(0)
	id := sid("power", "n0")
	// 0..59 at 1s cadence, value = second index.
	for i := 0; i < 60; i++ {
		_ = s.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*1000, float64(i))
	}
	pts, err := s.AggregatePlanned(id, 0, 60_000, 10_000, AggMean)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("windows = %v", pts)
	}
	if pts[0].Value != 4.5 || pts[5].Value != 54.5 {
		t.Fatalf("means = %v", pts)
	}
	maxes, _ := s.AggregatePlanned(id, 0, 60_000, 10_000, AggMax)
	if maxes[0].Value != 9 {
		t.Fatalf("max = %v", maxes[0])
	}
	counts, _ := s.AggregatePlanned(id, 0, 60_000, 30_000, AggCount)
	if counts[0].Value != 30 || counts[1].Value != 30 {
		t.Fatalf("counts = %v", counts)
	}
	if _, err := s.AggregatePlanned(id, 0, 1, 0, AggMean); err == nil {
		t.Fatal("step 0 should error")
	}
	if _, err := s.AggregatePlanned(id, 0, 60_000, 10_000, AggFunc("bogus")); err == nil {
		t.Fatal("unknown agg should error")
	}
	sums, _ := s.AggregatePlanned(id, 0, 60_000, 60_000, AggSum)
	if sums[0].Value != 59*60/2 {
		t.Fatalf("sum = %v", sums[0])
	}
	p95s, _ := s.AggregatePlanned(id, 0, 60_000, 60_000, AggP95)
	if p95s[0].Value < 55 || p95s[0].Value > 59 {
		t.Fatalf("p95 = %v", p95s[0])
	}
	stds, _ := s.AggregatePlanned(id, 0, 60_000, 60_000, AggStd)
	if stds[0].Value <= 0 {
		t.Fatalf("std = %v", stds[0])
	}
	mins, _ := s.AggregatePlanned(id, 0, 60_000, 60_000, AggMin)
	if mins[0].Value != 0 {
		t.Fatalf("min = %v", mins[0])
	}
	// A store without tiers plans every query raw; the two refused ones plan
	// nothing.
	if st := s.RollupStats(); st.RawPlans != 7 || len(st.Tiers) != 0 {
		t.Fatalf("plans: %+v, want 7 raw", st)
	}
}

func TestStoreRetain(t *testing.T) {
	s := NewStore(50)
	id := sid("power", "n0")
	for i := 0; i < 200; i++ {
		_ = s.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*1000, float64(i))
	}
	dropped := s.Retain(100_000)
	if dropped != 100 {
		t.Fatalf("dropped = %d", dropped)
	}
	all, _ := collect(s, id, math.MinInt64, math.MaxInt64)
	if len(all) != 100 || all[0].T != 100_000 {
		t.Fatalf("after retain: %d samples from %d", len(all), all[0].T)
	}
}

func TestStoreSeriesValues(t *testing.T) {
	s := NewStore(0)
	id := sid("x", "n0")
	for i := 0; i < 5; i++ {
		_ = s.Append(id, metric.Gauge, "", int64(i), float64(i*i))
	}
	vals, err := s.SeriesValues(id, 1, 4, 0)
	if err != nil || len(vals) != 3 || vals[0] != 1 || vals[2] != 9 {
		t.Fatalf("SeriesValues = %v, %v", vals, err)
	}
}

func TestStoreConcurrentAppend(t *testing.T) {
	s := NewStore(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := sid("power", string(rune('a'+g)))
			for i := 0; i < 1000; i++ {
				if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(i), float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.NumSamples() != 8000 {
		t.Fatalf("samples = %d", s.NumSamples())
	}
	if s.CompressionRatio() <= 1 {
		t.Fatalf("compression ratio = %v", s.CompressionRatio())
	}
}
