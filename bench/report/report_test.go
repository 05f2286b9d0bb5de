package report

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single = %v, want 7", got)
	}
	vals := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := Percentile(vals, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("p%.0f = %v, want %v", tc.p*100, got, tc.want)
		}
	}
	// 1..100: p99 interpolates between the 99th and 100th values.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := Percentile(hundred, 0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %v, want 99.01", got)
	}
}

// obs makes n observations of value ms spread evenly over [from, to).
func obs(from, to time.Duration, n int, ms float64) []Timed {
	out := make([]Timed, n)
	for i := range out {
		out[i] = Timed{At: from + (to-from)*time.Duration(i)/time.Duration(n), Ms: ms}
	}
	return out
}

func TestSegmentedP99IgnoresOneBadSegment(t *testing.T) {
	// Three 5 s segments of 1 ms operations; the middle one holds a stall
	// that puts 5 % of its operations at 500 ms. A plain p99 over the run
	// would report the stall; the median of per-segment p99s does not.
	var all []Timed
	all = append(all, obs(0, 5*time.Second, 1000, 1)...)
	all = append(all, obs(5*time.Second, 10*time.Second, 950, 1)...)
	all = append(all, obs(5*time.Second, 10*time.Second, 50, 500)...)
	all = append(all, obs(10*time.Second, 15*time.Second, 1000, 1)...)
	l := Summarise(all)
	if l.N != 3000 || l.P50 != 1 {
		t.Fatalf("N=%d P50=%v, want 3000 and 1", l.N, l.P50)
	}
	if l.P99 != 1 {
		t.Errorf("segmented p99 = %v, want 1 (one stalled segment must not own it)", l.P99)
	}
	plain := make([]float64, len(all))
	for i, o := range all {
		plain[i] = o.Ms
	}
	if p := Percentile(plain, 0.99); p != 500 {
		t.Errorf("plain p99 = %v, want 500: the test's premise", p)
	}
}

func TestSegmentedP99ShortRunsAndTails(t *testing.T) {
	// A run shorter than one segment is one segment: its p99 is the plain one.
	short := append(obs(0, 2*time.Second, 99, 1), Timed{At: time.Second, Ms: 9})
	if l := Summarise(short); math.Abs(l.P99-1.08) > 1e-9 {
		t.Errorf("single-segment p99 = %v, want 1.08", l.P99)
	}
	// 12 s = two segments and a 2 s tail; the tail joins the second segment
	// rather than voting with a handful of samples.
	var run []Timed
	run = append(run, obs(0, 5*time.Second, 100, 1)...)
	run = append(run, obs(5*time.Second, 10*time.Second, 100, 3)...)
	run = append(run, obs(10*time.Second, 12*time.Second, 10, 100)...)
	l := Summarise(run)
	// Segment p99s are 1 and ~100 (the tail's values fall in segment two);
	// their median is the midpoint.
	if l.P99 < 40 || l.P99 > 60 {
		t.Errorf("p99 with a short tail = %v, want the midpoint of 1 and ~100", l.P99)
	}
	if Summarise(nil) != (Latency{}) {
		t.Error("no observations must summarise to the zero Latency")
	}
}
