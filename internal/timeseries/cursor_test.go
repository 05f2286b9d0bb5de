package timeseries

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/metric"
	"repro/internal/stats"
)

func cursorTestStore(t *testing.T) (*Store, metric.ID) {
	t.Helper()
	s := NewStore(8)
	id := metric.ID{Name: "power", Labels: metric.NewLabels("node", "n0")}
	for i := 0; i < 100; i++ {
		if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(i*10), float64(i%13)+0.25); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	return s, id
}

func collectCursor(t *testing.T, cur *cursor) []metric.Sample {
	t.Helper()
	var out []metric.Sample
	for cur.Next() {
		out = append(out, cur.At())
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor err: %v", err)
	}
	return out
}

// TestCursorMatchesQueryWindows: on fixed windows (empty, inverted, chunk
// edges, past the data) the cursor yields what a windowed read through
// Each yields.
func TestCursorMatchesQueryWindows(t *testing.T) {
	s, id := cursorTestStore(t)
	windows := [][2]int64{
		{0, 1000}, {-50, 2000}, {35, 615}, {40, 41}, {990, 2000},
		{1000, 2000}, {-100, 0}, {500, 500}, {700, 10},
	}
	for _, w := range windows {
		want, err := collect(s, id, w[0], w[1])
		if err != nil {
			t.Fatalf("each: %v", err)
		}
		cur, err := s.cursor(id, w[0], w[1])
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		got := collectCursor(t, cur)
		cur.Close()
		if len(got) != len(want) {
			t.Fatalf("window %v: cursor %d samples, each %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("window %v sample %d: cursor %v, each %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestCursorUnknownSeries(t *testing.T) {
	s, _ := cursorTestStore(t)
	if _, err := s.cursor(metric.ID{Name: "nope"}, 0, 100); err == nil {
		t.Fatal("expected error for unknown series")
	}
}

func TestCursorSeesOpenChunkSnapshot(t *testing.T) {
	s := NewStore(8)
	id := metric.ID{Name: "m"}
	for i := 0; i < 3; i++ { // fewer than one chunk: all samples in the open tail
		if err := s.Append(id, metric.Gauge, metric.UnitNone, int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := s.cursor(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Appends after the snapshot must not appear in this cursor.
	if err := s.Append(id, metric.Gauge, metric.UnitNone, 50, 50); err != nil {
		t.Fatal(err)
	}
	got := collectCursor(t, cur)
	cur.Close()
	if len(got) != 3 {
		t.Fatalf("snapshot cursor saw %d samples, want 3", len(got))
	}
}

func TestCursorCloseTwice(t *testing.T) {
	s, id := cursorTestStore(t)
	cur, err := s.cursor(id, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	cur.Close() // must be a no-op, not a double pool put
	if cur.Next() {
		t.Fatal("closed cursor advanced")
	}
}

func TestCursorPoolReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse and instruments allocations")
	}
	s, id := cursorTestStore(t)
	for i := 0; i < 32; i++ {
		cur, err := s.cursor(id, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
		}
		cur.Close()
	}
	gets, news := s.CursorPoolStats()
	if gets != 32 {
		t.Fatalf("gets = %d, want 32", gets)
	}
	// sync.Pool may drop objects under GC pressure, but in a tight serial
	// loop reuse must dominate.
	if news > 4 {
		t.Fatalf("news = %d: pool is not reusing cursors", news)
	}
}

func TestEachEarlyStop(t *testing.T) {
	s, id := cursorTestStore(t)
	n := 0
	err := s.Each(id, 0, 1000, func(metric.Sample) bool {
		n++
		return n < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("Each visited %d samples, want 5", n)
	}
	if err := s.Each(metric.ID{Name: "nope"}, 0, 1, func(metric.Sample) bool { return true }); err == nil {
		t.Fatal("Each on unknown series: expected error")
	}
}

// TestReduceEmptyWindow: a whole-window reduction over no samples answers 0
// for every function but p95, whose quantile of nothing errors — on a raw
// plan (a store without tiers) and on a tier plan over a gap between sealed
// windows alike.
func TestReduceEmptyWindow(t *testing.T) {
	raw, id := cursorTestStore(t)
	tiered := NewStore(8, WithRollups(1000))
	for _, ts := range []int64{0, 10, 10_000, 20_000} { // seals [0, 1000) and [10000, 11000)
		if err := tiered.Append(id, metric.Gauge, metric.UnitWatt, ts, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*Store{raw, tiered} {
		for _, fn := range []AggFunc{AggMean, AggSum, AggMin, AggMax, AggCount, AggStd, AggRate} {
			v, n, err := s.ReducePlanned(id, 5000, 6000, fn)
			if err != nil {
				t.Fatalf("ReducePlanned(%s) empty: %v", fn, err)
			}
			if n != 0 || v != 0 {
				t.Fatalf("ReducePlanned(%s) empty = (%v, %d), want (0, 0)", fn, v, n)
			}
		}
		if _, _, err := s.ReducePlanned(id, 5000, 6000, AggP95); !errors.Is(err, stats.ErrEmpty) {
			t.Fatalf("ReducePlanned(p95) empty: %v, want stats.ErrEmpty", err)
		}
	}
	if st := raw.RollupStats(); st.RawPlans != 8 || len(st.Tiers) != 0 {
		t.Fatalf("untiered store's plans: %+v, want 8 raw", st)
	}
	if st := tiered.RollupStats(); st.RawPlans != 2 || st.Tiers[0].Picks != 6 {
		t.Fatalf("tiered store's plans: %+v, want 6 tier picks and std and p95 raw", st)
	}
}

func TestReduceRate(t *testing.T) {
	s := NewStore(4)
	id := metric.ID{Name: "ctr"}
	// 10 units per 1000 ms => 10/s.
	for i := 0; i < 10; i++ {
		if err := s.Append(id, metric.Counter, metric.UnitNone, int64(i*1000), float64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	v, n, err := s.ReducePlanned(id, 0, 1<<62, AggRate)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || v != 10 {
		t.Fatalf("rate = %v over %d samples, want 10 over 10", v, n)
	}
	// A single sample has no slope.
	v, _, err = s.ReducePlanned(id, 0, 1000, AggRate)
	if err != nil || v != 0 {
		t.Fatalf("single-sample rate = %v, %v; want 0, nil", v, err)
	}
	if st := s.RollupStats(); st.RawPlans != 2 || len(st.Tiers) != 0 {
		t.Fatalf("plans: %+v, want 2 raw", st)
	}
}

func TestAggregateRateBuckets(t *testing.T) {
	s := NewStore(4)
	id := metric.ID{Name: "ctr"}
	for i := 0; i < 8; i++ {
		if err := s.Append(id, metric.Counter, metric.UnitNone, int64(i*500), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pts, err := s.AggregatePlanned(id, 0, 4000, 2000, AggRate)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.RollupStats(); st.RawPlans != 1 || len(st.Tiers) != 0 {
		t.Fatalf("plans: %+v, want 1 raw", st)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d buckets, want 2", len(pts))
	}
	for i, p := range pts {
		// Within each bucket values climb 1 per 500 ms => 2/s.
		if p.Value != 2 {
			t.Fatalf("bucket %d rate = %v, want 2", i, p.Value)
		}
	}
}

func TestCursorStreamingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse and instruments allocations")
	}
	// A warmed cursor walk over sealed chunks must not allocate: the pooled
	// cursor carries its scratch and the chunk iterator is embedded by
	// value. The series is resolved once up front — building the ID's key
	// string is the caller's amortizable cost, not the engine's.
	s, id := cursorTestStore(t)
	ss := s.lookup(id.Key())
	if ss == nil {
		t.Fatal("series missing")
	}
	var sum float64
	allocs := testing.AllocsPerRun(100, func() {
		cur := s.newCursor(ss, 0, 1000)
		for cur.Next() {
			sum += cur.At().V
		}
		if cur.Err() != nil {
			t.Fatal(cur.Err())
		}
		cur.Close()
	})
	if allocs > 0 {
		t.Fatalf("cursor sweep allocated %.1f objects/op, want 0", allocs)
	}
	_ = sum
}

func TestCursorEstUpperBound(t *testing.T) {
	s, id := cursorTestStore(t)
	cur, err := s.cursor(id, 35, 615)
	if err != nil {
		t.Fatal(err)
	}
	est := cur.est
	got := len(collectCursor(t, cur))
	cur.Close()
	if est < got {
		t.Fatalf("Est() = %d below actual yield %d", est, got)
	}
}

// TestReadsLeaveNothingResident: a sample is resident once, compressed. One
// full-window pass of every read entry point over every series — 307,200
// samples, 4.9 MB decoded — must leave the heap where it found it; a store
// that kept what it decoded would hold at least 16 B a sample.
func TestReadsLeaveNothingResident(t *testing.T) {
	const nSeries, chunksPerSeries = 64, 40
	s := NewStore(0, WithRollups(TierStep1m, TierStep1h))
	ids := make([]metric.ID, nSeries)
	for i := range ids {
		ids[i] = sid("power", fmt.Sprintf("n%02d", i))
		fillRollupStore(t, s, ids[i], 0, 10_000, chunksPerSeries*DefaultChunkSize)
	}
	const to = chunksPerSeries * DefaultChunkSize * 10_000
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	for _, id := range ids {
		if out, err := collect(s, id, 0, to); err != nil || len(out) != chunksPerSeries*DefaultChunkSize {
			t.Fatalf("Each: %d samples, %v", len(out), err)
		}
		if _, _, err := s.ReducePlanned(id, 0, to, AggP95); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.ReducePlanned(id, 0, to, AggMean); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AggregatePlanned(id, 0, to, TierStep1m, AggMax); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SeriesValues(id, 0, to, 0); err != nil {
			t.Fatal(err)
		}
	}
	if grew := heap() - before; grew > 1<<20 {
		t.Fatalf("reads left %d bytes resident (%d samples read), want <= 1 MiB", grew, s.NumSamples())
	}
}
