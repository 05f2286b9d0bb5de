// Package stats implements the descriptive-statistics toolkit the ODA
// analytics layers are built on: summary statistics, quantiles, histograms,
// rolling windows, correlation measures and information-theoretic metrics.
//
// Everything here is deterministic and allocation-conscious; the heavier
// model classes (regression, clustering, forests) live in internal/ml, and
// time-series forecasting in internal/forecast.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one observation.
var ErrEmpty = errors.New("stats: empty input")

// Summary holds the moments and extremes of a set of observations.
type Summary struct {
	Count    int
	Sum      float64
	Mean     float64
	Variance float64 // sample variance (n-1 denominator)
	Std      float64
	Min      float64
	Max      float64
}

// Summarize computes a Summary over xs. It returns ErrEmpty for no input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	return o.Summary(), nil
}

// Online accumulates summary statistics one observation at a time using
// Welford's algorithm, so a collector can maintain running statistics
// without retaining samples. The zero value is ready to use.
type Online struct {
	n        int
	mean, m2 float64
	sum      float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	o.sum += x
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations added so far.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 for no observations).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the running sample variance (0 for fewer than two points).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the running sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Variance()) }

// Summary snapshots the accumulator.
func (o *Online) Summary() Summary {
	return Summary{
		Count:    o.n,
		Sum:      o.sum,
		Mean:     o.mean,
		Variance: o.Variance(),
		Std:      o.Std(),
		Min:      o.min,
		Max:      o.max,
	}
}

// Merge combines another accumulator into o (parallel Welford merge), so
// per-node statistics can be reduced into rack or system aggregates.
func (o *Online) Merge(b *Online) {
	if b.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *b
		return
	}
	n := o.n + b.n
	d := b.mean - o.mean
	o.m2 += b.m2 + d*d*float64(o.n)*float64(b.n)/float64(n)
	o.mean += d * float64(b.n) / float64(n)
	o.sum += b.sum
	if b.min < o.min {
		o.min = b.min
	}
	if b.max > o.max {
		o.max = b.max
	}
	o.n = n
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation of xs.
func Std(xs []float64) float64 {
	s, err := Summarize(xs)
	if err != nil {
		return 0
	}
	return s.Std
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// The input is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles computes several quantiles with a single sort.
func Quantiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 1 {
			return nil, errors.New("stats: quantile out of [0,1]")
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out, nil
}

// Median is the 0.5 quantile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// MAD returns the median absolute deviation of xs, scaled by 1.4826 so it
// estimates the standard deviation for normal data. Anomaly detectors prefer
// it over Std because a single faulty sensor cannot inflate it.
func MAD(xs []float64) (float64, error) {
	med, err := Median(xs)
	if err != nil {
		return 0, err
	}
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	m, err := Median(dev)
	return 1.4826 * m, err
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either input has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Ranks returns the fractional ranks of xs (average rank for ties),
// 1-based, in the original order.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Entropy returns the Shannon entropy (bits) of a discrete distribution
// given as non-negative weights; the weights need not be normalized. This is
// the primitive behind the System Information Entropy metric.
func Entropy(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, w := range weights {
		if w <= 0 {
			continue
		}
		p := w / total
		if p <= 0 || math.IsNaN(p) { // total may have overflowed to +Inf
			continue
		}
		h -= p * math.Log2(p)
	}
	return h
}

// Rolling is a fixed-size sliding window over a stream that maintains sum
// and sum of squares incrementally, for O(1) windowed mean/std.
type Rolling struct {
	buf        []float64
	head, size int
	sum, sumSq float64
}

// NewRolling returns a rolling window of capacity n (n >= 1).
func NewRolling(n int) *Rolling {
	if n < 1 {
		n = 1
	}
	return &Rolling{buf: make([]float64, n)}
}

// Add pushes an observation, evicting the oldest when full.
func (r *Rolling) Add(x float64) {
	if r.size == len(r.buf) {
		old := r.buf[r.head]
		r.sum -= old
		r.sumSq -= old * old
	} else {
		r.size++
	}
	r.buf[r.head] = x
	r.sum += x
	r.sumSq += x * x
	r.head = (r.head + 1) % len(r.buf)
}

// Full reports whether the window has reached capacity.
func (r *Rolling) Full() bool { return r.size == len(r.buf) }

// Len returns the current number of observations in the window.
func (r *Rolling) Len() int { return r.size }

// Mean returns the windowed mean.
func (r *Rolling) Mean() float64 {
	if r.size == 0 {
		return 0
	}
	return r.sum / float64(r.size)
}

// Std returns the windowed sample standard deviation.
func (r *Rolling) Std() float64 {
	if r.size < 2 {
		return 0
	}
	n := float64(r.size)
	v := (r.sumSq - r.sum*r.sum/n) / (n - 1)
	if v < 0 { // numerical noise
		v = 0
	}
	return math.Sqrt(v)
}

// Values returns the window contents oldest-first.
func (r *Rolling) Values() []float64 {
	out := make([]float64, 0, r.size)
	start := r.head - r.size
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.size; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Histogram is a fixed-bin histogram over [Lo, Hi). Out-of-range values are
// counted in the under/overflow bins.
type Histogram struct {
	Lo, Hi    float64
	Counts    []uint64
	Underflow uint64
	Overflow  uint64
	total     uint64
}

// NewHistogram builds a histogram with nbins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins < 1 {
		nbins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, nbins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		h.Overflow++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // guard float rounding at the upper edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations recorded, including out-of-range.
func (h *Histogram) Total() uint64 { return h.total }

// Quantile estimates the q-quantile from bin midpoints.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := q * float64(h.total)
	cum := float64(h.Underflow)
	if cum >= target {
		return h.Lo
	}
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		cum += float64(c)
		if cum >= target {
			return h.Lo + (float64(i)+0.5)*width
		}
	}
	return h.Hi
}

// Entropy returns the Shannon entropy of the in-range bin distribution, the
// building block of the System Information Entropy indicator.
func (h *Histogram) Entropy() float64 {
	ws := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		ws[i] = float64(c)
	}
	return Entropy(ws)
}

// ArgMax returns the index of the maximum element, or -1 for empty input.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Clamp limits x into [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
