package timeseries

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/metric"
)

// wideGap is a second-sample gap one past what a chunk's 35-bit first-delta
// field holds: a sensor back after 398 days of silence at millisecond
// timestamps, or a unit mix-up between ms and ns.
const wideGap = 1<<35 + 5

// TestStoreKeepsSampleAfterWideGap is the regression test for the silent
// truncation: the chunk used to write the low 35 bits of the gap, return nil,
// and decode the second sample at the wrong time ({1005 2} for this input).
// The store now cuts the one-sample chunk and opens a fresh one, whose header
// carries the whole timestamp — on the raw series and through dump/restore
// alike, with later appends and reads carrying on across the cut.
func TestStoreKeepsSampleAfterWideGap(t *testing.T) {
	id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n0")}
	s := NewStore(8, WithRollups(TierStep1m))
	want := []metric.Sample{{T: 1000, V: 1}, {T: 1000 + wideGap, V: 2}, {T: 1000 + wideGap + 10, V: 3}}
	for _, sm := range want {
		if err := s.Append(id, metric.Gauge, metric.UnitWatt, sm.T, sm.V); err != nil {
			t.Fatalf("Append(%d): %v", sm.T, err)
		}
	}
	got, err := collect(s, id, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("series reads back as %v, want %v", got, want)
	}
	// From off the 1m grid, the plan is raw: the read crosses the cut.
	if p, plan, err := s.ReducePartial(id, 1, 1<<62); err != nil || p.Count != 3 || p.Sum != 6 || plan.TierStep != 0 {
		t.Fatalf("raw reduction over the cut = (%v, %d, %+v, %v), want (6, 3, raw, nil)", p.Sum, p.Count, plan, err)
	}
	dump := s.Dump()
	if n := len(dump[0].Chunks); n != 2 || dump[0].Chunks[0].Count != 1 {
		t.Fatalf("raw chunks = %+v, want a one-sample chunk then the rest", dump[0].Chunks)
	}
	re, err := RestoreStore(s.ChunkSize(), dump, WithRollups(TierStep1m))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !reflect.DeepEqual(re.Dump(), dump) {
		t.Fatal("restored store dumps differently")
	}
}

// TestChunkRefusesWideFirstDelta: the codec itself refuses what it cannot
// represent, leaves the chunk as it was, and still takes a sample that fits.
func TestChunkRefusesWideFirstDelta(t *testing.T) {
	c := newRawChunk(false)
	if err := c.Append(1000, 1); err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), c.w.bytes()...)
	for _, gap := range []int64{1 << 35, wideGap, 1<<63 - 1001} {
		if err := c.Append(1000+gap, 2); !errors.Is(err, ErrFirstDelta) {
			t.Fatalf("Append with first delta %d: err = %v, want ErrFirstDelta", gap, err)
		}
	}
	if c.Count() != 1 || !reflect.DeepEqual(c.w.bytes(), before) {
		t.Fatal("a refused append changed the chunk")
	}
	if err := c.Append(1000+1<<35-1, 2); err != nil {
		t.Fatalf("the widest first delta that fits was refused: %v", err)
	}
	it := c.Iter()
	it.Next()
	if it.Next(); it.At() != (metric.Sample{T: 1000 + 1<<35 - 1, V: 2}) {
		t.Fatalf("second sample decodes as %v", it.At())
	}
}
