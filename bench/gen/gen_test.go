package gen

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// appendTick serialises one tick canonically — the byte stream the
// determinism test compares.
func appendTick(f *Fleet, dst []byte, t int64, vals []float64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(t))
	for i := range f.Series {
		s := &f.Series[i]
		dst = append(dst, s.Name...)
		dst = append(dst, s.Node...)
		dst = append(dst, s.Rack...)
		dst = append(dst, byte(s.Kind))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(vals[i]))
	}
	return dst
}

// appendQueries serialises a schedule canonically for the determinism
// test.
func appendQueries(dst []byte, qs []Query) []byte {
	for _, q := range qs {
		dst = append(dst, byte(q.Class))
		dst = binary.BigEndian.AppendUint32(dst, uint32(q.Series))
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.From))
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.To))
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.Step))
		dst = append(dst, q.Fn...)
	}
	return dst
}

// stream renders everything a seed decides: the batch stream of a small
// fleet and a query schedule over it.
func stream(seed int64) []byte {
	f := NewFleet(seed, 4, 8)
	vals := make([]float64, len(f.Series))
	var out []byte
	for k := 0; k < 500; k++ {
		t := f.Next(vals)
		out = appendTick(f, out, t, vals)
	}
	out = appendQueries(out, NewQueries(seed, SynthClock, 400, len(f.Series), 500, Mix{0.5, 0.25, 0.25}))
	for _, s := range ProbeSeries(seed, 50, len(f.Series)) {
		out = append(out, byte(s))
	}
	for _, c := range NewChecks(seed, len(f.Series), 500) {
		out = append(out, byte(c.Series), byte(c.FromTick), byte(c.ToTick))
	}
	return out
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := stream(7), stream(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different batch stream or query list")
	}
	if bytes.Equal(a, stream(8)) {
		t.Fatal("different seeds produced identical inputs")
	}
}

func TestValueStreamMix(t *testing.T) {
	f := NewFleet(3, 64, 32)
	var counters, consts int
	for _, s := range f.Series {
		switch s.Kind {
		case Counter:
			counters++
		case Const:
			consts++
		}
	}
	n := float64(len(f.Series))
	if c := float64(counters) / n; c < 0.07 || c > 0.13 {
		t.Errorf("counter share %.3f, want about 0.10", c)
	}
	if c := float64(consts) / n; c < 0.03 || c > 0.07 {
		t.Errorf("constant share %.3f, want about 0.05", c)
	}
	prev := make([]float64, len(f.Series))
	vals := make([]float64, len(f.Series))
	f.Next(prev)
	for k := 0; k < 50; k++ {
		f.Next(vals)
		for i, s := range f.Series {
			if q := math.Round(vals[i]*10) / 10; q != vals[i] {
				t.Fatalf("series %d value %v not quantised to 0.1", i, vals[i])
			}
			if s.Kind == Counter && vals[i] < prev[i] {
				t.Fatalf("counter %d went down: %v -> %v", i, prev[i], vals[i])
			}
			if s.Kind == Const && vals[i] != prev[i] {
				t.Fatalf("constant %d moved: %v -> %v", i, prev[i], vals[i])
			}
		}
		copy(prev, vals)
	}
}

func TestExpectMatchesHistory(t *testing.T) {
	f := NewFleet(5, 2, 4)
	vals := make([]float64, len(f.Series))
	var want Expect
	for k := 0; k < 20; k++ {
		f.Next(vals)
		if k >= 5 && k < 12 {
			want.Add(vals[3])
		}
	}
	if got := f.Expect(Check{Series: 3, FromTick: 5, ToTick: 12}); got != want {
		t.Fatalf("Expect = %+v, want %+v", got, want)
	}
	// A window reaching past the generated ticks counts only what exists.
	if got := f.Expect(Check{Series: 3, FromTick: 15, ToTick: 40}); got.Count != 5 {
		t.Fatalf("count past the end = %d, want 5", got.Count)
	}
}

func TestQueryScheduleShape(t *testing.T) {
	qs := NewQueries(1, SynthClock, 4000, 512, 4320, Mix{0.5, 0.25, 0.25})
	byClass := map[Class]int{}
	keys := map[Query]int{}
	T0 := SynthClock.T0
	end := SynthClock.TimeOf(4320)
	for _, q := range qs {
		byClass[q.Class]++
		keys[q]++
		if q.From < T0 || q.To > end || q.To <= q.From {
			t.Fatalf("query window [%d,%d) outside data [%d,%d)", q.From, q.To, T0, end)
		}
		if q.Class == Range && ((q.From-T0)%hourMs != 0 || q.Step != hourMs) {
			t.Fatalf("range query not hour aligned: %+v", q)
		}
	}
	if p := float64(byClass[Point]) / 4000; p < 0.45 || p > 0.55 {
		t.Errorf("point share %.3f, want about 0.5", p)
	}
	repeats := 0
	for _, n := range keys {
		repeats += n - 1
	}
	// 30 % draw from 256 hot queries, so nearly all of those are repeats.
	if r := float64(repeats) / 4000; r < 0.2 || r > 0.35 {
		t.Errorf("repeat share %.3f, want about 0.3 minus first touches", r)
	}
}
