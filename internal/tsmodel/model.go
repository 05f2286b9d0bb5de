// Package tsmodel is the reference model of the TSDB's contract: what the
// store accepts, what Retain may drop, and what every reduction answers. A
// series is a plain time-ordered sample slice and every answer is computed
// from it directly, so the store's chunks, cursors, rollup tiers and planner
// are checked against code they share nothing with: the package imports only
// metric and stats, never timeseries.
//
// The contract, per series:
//
//   - It exists from its first append attempt or Resolve. A sample lands only
//     if it is newer than the series' newest; on a store with rollup tiers the
//     newest sample it ever accepted stays that watermark after Retain dropped
//     all its raw samples (the tiers' open windows still hold it), while a
//     series without tiers forgets it.
//   - Retain(cutoff) keeps every sample >= cutoff, drops a prefix that lies
//     wholly below it, returns how many went, and leaves no series whose
//     newest sample is < cutoff. Which older samples survive is the store's
//     chunking: Model.Retain checks the bounds and adopts the outcome.
//   - Reductions keep the raw reducers' float association order: sums fold
//     left to right and std is Welford's (stats.Online), p95 is
//     stats.Quantile, rate the slope across the first and last samples; step
//     buckets open at from + k*step and empty ones are omitted.
package tsmodel

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/metric"
	"repro/internal/stats"
)

// Model is the reference store.
type Model struct {
	tiered bool
	series map[string]*series
	keys   []string // registration order
}

type series struct {
	samples []metric.Sample
	newest  int64 // the acceptance watermark, while hasNew
	hasNew  bool
}

// New returns an empty model of a store with or without rollup tiers.
func New(tiered bool) *Model { return &Model{tiered: tiered, series: make(map[string]*series)} }

// Register creates the series, as Resolve does.
func (m *Model) Register(id metric.ID) { m.register(id.Key()) }

func (m *Model) register(key string) *series {
	if m.series[key] == nil {
		m.series[key] = &series{}
		m.keys = append(m.keys, key)
	}
	return m.series[key]
}

// Append applies the acceptance rule to one sample and reports whether it
// lands.
func (m *Model) Append(id metric.ID, t int64, v float64) bool {
	s := m.register(id.Key())
	if s.hasNew && t <= s.newest {
		return false
	}
	s.samples = append(s.samples, metric.Sample{T: t, V: v})
	s.newest, s.hasNew = t, true
	return true
}

// Retain checks a store's Retain(cutoff) outcome against the contract and
// adopts it: dropped is what the store returned, kept(key) how many samples
// the series holds afterwards.
func (m *Model) Retain(cutoff int64, dropped int, kept func(key string) int) error {
	total := 0
	for _, key := range m.keys {
		s := m.series[key]
		n := len(s.samples) - kept(key)
		switch {
		case n < 0:
			return fmt.Errorf("retain %d: %s holds %d samples it never accepted", cutoff, key, -n)
		case n > 0 && s.samples[n-1].T >= cutoff:
			return fmt.Errorf("retain %d: %s lost sample %d, not older than the cutoff", cutoff, key, s.samples[n-1].T)
		case n < len(s.samples) && s.samples[len(s.samples)-1].T < cutoff:
			return fmt.Errorf("retain %d: %s keeps only older samples", cutoff, key)
		}
		total += n
		s.samples = append([]metric.Sample(nil), s.samples[n:]...)
		s.hasNew = s.hasNew && (len(s.samples) > 0 || m.tiered)
	}
	if total != dropped {
		return fmt.Errorf("retain %d: store reported %d samples dropped, %d went", cutoff, dropped, total)
	}
	return nil
}

// Keys returns every series key in registration order.
func (m *Model) Keys() []string { return m.keys }

// NumSamples is the total sample count.
func (m *Model) NumSamples() int {
	n := 0
	for _, s := range m.series {
		n += len(s.samples)
	}
	return n
}

// Samples returns the series' samples with from <= T < to.
func (m *Model) Samples(key string, from, to int64) []metric.Sample {
	var all []metric.Sample
	if s := m.series[key]; s != nil {
		all = s.samples
	}
	lo := sort.Search(len(all), func(i int) bool { return all[i].T >= from })
	hi := sort.Search(len(all), func(i int) bool { return all[i].T >= to })
	return all[lo:max(lo, hi)]
}

// Latest returns the series' newest held sample.
func (m *Model) Latest(key string) (metric.Sample, bool) {
	w := m.Samples(key, math.MinInt64, math.MaxInt64)
	if len(w) == 0 {
		return metric.Sample{}, false
	}
	return w[len(w)-1], true
}

// Reduce is one reduction over [from, to) and how many samples it covered.
// An empty window answers 0 for every function but p95, which errors.
func (m *Model) Reduce(key string, from, to int64, fn string) (float64, int, error) {
	if m.series[key] == nil {
		return 0, 0, fmt.Errorf("tsmodel: unknown series %s", key)
	}
	w := m.Samples(key, from, to)
	v, err := reduce(w, fn)
	if err != nil {
		return 0, 0, err
	}
	return v, len(w), nil
}

// Point is one step bucket: Start opens it.
type Point struct {
	Start int64
	Value float64
}

// Aggregate reduces each non-empty step bucket of [from, to).
func (m *Model) Aggregate(key string, from, to, step int64, fn string) ([]Point, error) {
	switch {
	case step <= 0:
		return nil, errors.New("tsmodel: step must be positive")
	case m.series[key] == nil:
		return nil, fmt.Errorf("tsmodel: unknown series %s", key)
	case to > from && to-from < 0:
		return nil, fmt.Errorf("tsmodel: window [%d, %d) is wider than int64", from, to)
	}
	var out []Point
	w := m.Samples(key, from, to)
	for i, j := 0, 0; i < len(w); i = j {
		start := from + (w[i].T-from)/step*step
		for j = i + 1; j < len(w) && w[j].T-start < step; j++ {
		}
		v, err := reduce(w[i:j], fn)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{Start: start, Value: v})
	}
	return out, nil
}

func reduce(w []metric.Sample, fn string) (float64, error) {
	var o stats.Online
	vals := make([]float64, len(w))
	for i, sm := range w {
		o.Add(sm.V)
		vals[i] = sm.V
	}
	if fn == "p95" {
		return stats.Quantile(vals, 0.95)
	}
	var first, last metric.Sample
	if len(w) > 0 {
		first, last = w[0], w[len(w)-1]
	}
	return value(fn, &o, first, last)
}

// ReduceMerged reduces many series to one value the way a scatter query
// does: each series' window accumulated on its own, the accumulators merged
// in sorted key order (sums added; first and last resolved by time, the
// earlier key winning a tie). Unknown keys add nothing; std and p95 do not
// merge.
func (m *Model) ReduceMerged(keys []string, from, to int64, fn string) (float64, int64, error) {
	if fn == "std" || fn == "p95" {
		return 0, 0, fmt.Errorf("tsmodel: %s does not merge across series", fn)
	}
	keys = append([]string(nil), keys...)
	sort.Strings(keys)
	var total stats.Online
	var first, last metric.Sample
	for i, key := range keys {
		w := m.Samples(key, from, to)
		if len(w) == 0 || i > 0 && key == keys[i-1] {
			continue
		}
		var o stats.Online
		for _, sm := range w {
			o.Add(sm.V)
		}
		if total.N() == 0 || w[0].T < first.T {
			first = w[0]
		}
		if total.N() == 0 || w[len(w)-1].T > last.T {
			last = w[len(w)-1]
		}
		total.Merge(&o)
	}
	v, err := value(fn, &total, first, last)
	return v, int64(total.N()), err
}

// value finishes an accumulated window whose first and last samples are
// given.
func value(fn string, o *stats.Online, first, last metric.Sample) (float64, error) {
	s := o.Summary()
	var mean, rate float64
	if s.Count > 0 {
		mean = s.Sum / float64(s.Count)
	}
	if s.Count >= 2 && last.T != first.T {
		rate = (last.V - first.V) * 1000 / float64(last.T-first.T)
	}
	v, ok := map[string]float64{"mean": mean, "sum": s.Sum, "min": s.Min, "max": s.Max,
		"count": float64(s.Count), "std": s.Std, "rate": rate}[fn]
	if !ok {
		return 0, fmt.Errorf("tsmodel: unknown aggregation %q", fn)
	}
	return v, nil
}
