package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 8 || s.Sum != 40 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample variance of this classic set is 32/7.
	if !almostEq(s.Variance, 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v", s.Variance)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatal("empty input should return ErrEmpty")
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var o Online
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		o.Add(xs[i])
	}
	b, _ := Summarize(xs)
	if !almostEq(o.Mean(), b.Mean, 1e-9) || !almostEq(o.Variance(), b.Variance, 1e-9) {
		t.Fatalf("online (%v,%v) vs batch (%v,%v)", o.Mean(), o.Variance(), b.Mean, b.Variance)
	}
}

func TestOnlineMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, all Online
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 100
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() || !almostEq(a.Mean(), all.Mean(), 1e-9) || !almostEq(a.Variance(), all.Variance(), 1e-9) {
		t.Fatalf("merge mismatch: %+v vs %+v", a.Summary(), all.Summary())
	}
	// Merging empty is a no-op; merging into empty copies.
	var e Online
	e.Merge(&a)
	if e.N() != a.N() || e.Mean() != a.Mean() {
		t.Fatal("merge into empty failed")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.75, 7.75},
	} {
		got, err := Quantile(xs, c.q)
		if err != nil || !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("out-of-range q should error")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Error("empty input should return ErrEmpty")
	}
	one, _ := Quantile([]float64{42}, 0.9)
	if one != 42 {
		t.Error("single element quantile")
	}
}

func TestQuantilesSingleSort(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	got, err := Quantiles(xs, 0, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Quantiles = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Quantiles sorted the caller's slice")
	}
}

func TestMADRobustness(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9}
	spiked := append(append([]float64(nil), base...), 1000)
	mBase, _ := MAD(base)
	mSpiked, _ := MAD(spiked)
	if mSpiked > 3*mBase {
		t.Fatalf("MAD not robust: %v -> %v", mBase, mSpiked)
	}
	sBase, sSpiked := Std(base), Std(spiked)
	if sSpiked < 10*sBase {
		t.Fatalf("test premise broken: Std should explode, %v -> %v", sBase, sSpiked)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r, _ := Pearson(xs, ys); !almostEq(r, 1, 1e-12) {
		t.Fatalf("perfect correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r, _ := Pearson(xs, neg); !almostEq(r, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation = %v", r)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if r, _ := Pearson(xs, flat); r != 0 {
		t.Fatalf("zero-variance input should give 0, got %v", r)
	}
	if _, err := Pearson(xs, ys[:3]); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]float64{1, 1, 1, 1}); !almostEq(h, 2, 1e-12) {
		t.Fatalf("uniform-4 entropy = %v, want 2 bits", h)
	}
	if h := Entropy([]float64{1, 0, 0}); h != 0 {
		t.Fatalf("degenerate entropy = %v", h)
	}
	if h := Entropy(nil); h != 0 {
		t.Fatalf("empty entropy = %v", h)
	}
	// Negative weights are ignored rather than producing NaN.
	if h := Entropy([]float64{-5, 2, 2}); !almostEq(h, 1, 1e-12) {
		t.Fatalf("entropy with negatives = %v", h)
	}
}

func TestRollingWindow(t *testing.T) {
	r := NewRolling(3)
	r.Add(1)
	r.Add(2)
	if r.Full() {
		t.Fatal("window should not be full yet")
	}
	r.Add(3)
	if !r.Full() || r.Mean() != 2 {
		t.Fatalf("mean = %v", r.Mean())
	}
	r.Add(10) // evicts 1 -> window {2,3,10}
	if r.Mean() != 5 {
		t.Fatalf("mean after evict = %v", r.Mean())
	}
	vals := r.Values()
	if len(vals) != 3 || vals[0] != 2 || vals[2] != 10 {
		t.Fatalf("Values = %v", vals)
	}
	want := Std([]float64{2, 3, 10})
	if !almostEq(r.Std(), want, 1e-9) {
		t.Fatalf("Std = %v, want %v", r.Std(), want)
	}
}

func TestRollingMatchesBatchProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRolling(50)
	var window []float64
	for i := 0; i < 500; i++ {
		x := rng.NormFloat64() * 100
		r.Add(x)
		window = append(window, x)
		if len(window) > 50 {
			window = window[1:]
		}
		if !almostEq(r.Mean(), Mean(window), 1e-6) {
			t.Fatalf("step %d: rolling mean %v vs batch %v", i, r.Mean(), Mean(window))
		}
		if !almostEq(r.Std(), Std(window), 1e-6) {
			t.Fatalf("step %d: rolling std %v vs batch %v", i, r.Std(), Std(window))
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(11)
	if h.Total() != 12 || h.Underflow != 1 || h.Overflow != 1 {
		t.Fatalf("histogram totals: %+v", h)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Fatalf("bin %d count = %d", i, c)
		}
	}
	if q := h.Quantile(0.5); q < 4 || q > 7 {
		t.Fatalf("histogram median estimate = %v", q)
	}
	if e := h.Entropy(); !almostEq(e, math.Log2(10), 1e-12) {
		t.Fatalf("uniform histogram entropy = %v", e)
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(math.Nextafter(1, 0)) // just under upper edge
	if h.Counts[3] != 1 {
		t.Fatalf("upper-edge value landed in %v", h.Counts)
	}
	h2 := NewHistogram(5, 5, 0) // degenerate params get fixed up
	h2.Add(5.5)
	if h2.Total() != 1 {
		t.Fatal("degenerate histogram unusable")
	}
}

func TestDiffArgsClamp(t *testing.T) {
	if ArgMax([]float64{1, 5, 3}) != 1 {
		t.Fatal("ArgMax broken")
	}
	if ArgMax(nil) != -1 {
		t.Fatal("empty ArgMax should be -1")
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp broken")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 50
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			qq := math.Min(q, 1)
			v, err := Quantile(xs, qq)
			if err != nil || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		s, _ := Summarize(xs)
		lo, _ := Quantile(xs, 0)
		hi, _ := Quantile(xs, 1)
		return lo == s.Min && hi == s.Max
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: entropy is maximized by the uniform distribution.
func TestEntropyBoundProperty(t *testing.T) {
	f := func(ws []float64) bool {
		pos := 0
		for i := range ws {
			ws[i] = math.Abs(ws[i])
			if ws[i] > 0 {
				pos++
			}
		}
		h := Entropy(ws)
		if pos == 0 {
			return h == 0
		}
		return h <= math.Log2(float64(pos))+1e-9 && h >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
