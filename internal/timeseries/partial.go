package timeseries

import (
	"errors"
	"fmt"

	"repro/internal/metric"
	"repro/internal/stats"
)

// Partial is a mergeable partial aggregate: the same eight columns a rollup
// window carries (count/sum/min/max and the true first/last samples), which
// is exactly the closure the distributed query layer needs. A peer reduces
// its locally-owned samples to a Partial, ships it over the wire, and the
// coordinator merges Partials with Merge before finishing the requested
// function with Value — so only fixed-size aggregates cross the network,
// never raw samples.
//
// The accumulation arithmetic is deliberately the reference model's
// (internal/tsmodel): sums fold left to right (stats.Online and stats.Mean
// both keep a plain running sum), min/max compare pairwise, mean finishes as
// Sum/Count and rate as the slope across the true first and last samples. A
// single-series Partial therefore reproduces ReducePlanned bit for bit, and a
// merge chain in a fixed order is deterministic across runs.
type Partial struct {
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
	FirstT int64
	FirstV float64
	LastT  int64
	LastV  float64
}

// MergeableAgg reports whether fn resolves exactly from a Partial, and so
// from the rollup columns. Std and P95 need the raw distribution: the planner
// serves them raw, and distributed queries route them to the single peer
// owning the series instead of merging partials.
func MergeableAgg(fn AggFunc) bool {
	switch fn {
	case AggMean, AggSum, AggMin, AggMax, AggCount, AggRate:
		return true
	}
	return false
}

// addWindow folds one sealed rollup window into the partial. Windows arrive
// in time order on the planned path, matching the raw accumulation order.
func (p *Partial) addWindow(w *Partial) {
	if p.Count == 0 {
		p.Min, p.Max = w.Min, w.Max
		p.FirstT, p.FirstV = w.FirstT, w.FirstV
	} else {
		if w.Min < p.Min {
			p.Min = w.Min
		}
		if w.Max > p.Max {
			p.Max = w.Max
		}
	}
	p.Count += w.Count
	p.Sum += w.Sum
	p.LastT, p.LastV = w.LastT, w.LastV
}

// AddSample folds one raw sample into the partial.
func (p *Partial) AddSample(t int64, v float64) {
	if p.Count == 0 {
		p.Min, p.Max = v, v
		p.FirstT, p.FirstV = t, v
	} else {
		if v < p.Min {
			p.Min = v
		}
		if v > p.Max {
			p.Max = v
		}
	}
	p.Count++
	p.Sum += v
	p.LastT, p.LastV = t, v
}

// Merge folds q into p. Empty partials are identity elements; first/last
// resolve by timestamp so merging out-of-time-order partials (different
// series, different peers) is still exact, and merging in time order
// reduces to the sequential accumulation the single-store paths perform.
// Ties keep p's sample, so a fixed merge order gives a fixed result.
func (p *Partial) Merge(q Partial) {
	if q.Count == 0 {
		return
	}
	if p.Count == 0 {
		*p = q
		return
	}
	if q.Min < p.Min {
		p.Min = q.Min
	}
	if q.Max > p.Max {
		p.Max = q.Max
	}
	if q.FirstT < p.FirstT {
		p.FirstT, p.FirstV = q.FirstT, q.FirstV
	}
	if q.LastT > p.LastT {
		p.LastT, p.LastV = q.LastT, q.LastV
	}
	p.Count += q.Count
	p.Sum += q.Sum
}

// Value finishes the partial under fn; an empty partial finishes as 0. Only
// MergeableAgg functions resolve; anything else returns 0 (callers gate on
// MergeableAgg first).
func (p *Partial) Value(fn AggFunc) float64 {
	switch fn {
	case AggMean:
		if p.Count == 0 {
			return 0
		}
		return p.Sum / float64(p.Count)
	case AggSum:
		return p.Sum
	case AggMin:
		return p.Min
	case AggMax:
		return p.Max
	case AggCount:
		return float64(p.Count)
	case AggRate:
		if p.Count < 2 || p.LastT == p.FirstT {
			return 0
		}
		return (p.LastV - p.FirstV) * 1000 / float64(p.LastT-p.FirstT)
	}
	return 0
}

// PartialPoint is one step bucket's mergeable partial aggregate.
type PartialPoint struct {
	Start int64
	Agg   Partial
}

// FinishPartials resolves bucketed partials under fn.
func FinishPartials(pp []PartialPoint, fn AggFunc) []AggPoint {
	if len(pp) == 0 {
		return nil
	}
	out := make([]AggPoint, len(pp))
	for i := range pp {
		out[i] = AggPoint{Start: pp[i].Start, Value: pp[i].Agg.Value(fn)}
	}
	return out
}

// --- the read fold -------------------------------------------------------

// checkBuckets refuses a bucketed window too wide for int64. Bucket starts
// are base + (T-base)/step*step; once T-base wraps, distinct buckets merge
// into a wrong answer that looks like a right one.
func checkBuckets(base, to int64) error {
	if to > base && to-base < 0 {
		return fmt.Errorf("timeseries: window [%d, %d) is wider than int64, bucket starts would wrap", base, to)
	}
	return nil
}

// finish turns a bucket into its answer under fn: the Partial's value for a
// mergeable function, for std the Welford accumulator the bucket kept beside
// it (stats.Std is stats.Online over the values, so the bits are the
// reference model's), and for p95 stats.Quantile's type 7 over vals, the
// bucket's values. An empty bucket answers 0 for every function but p95,
// whose quantile of nothing is stats.ErrEmpty.
func finish(fn AggFunc, agg *Partial, on *stats.Online, vals []float64) (float64, error) {
	switch fn {
	case AggStd:
		return on.Std(), nil
	case AggP95:
		return stats.Quantile(vals, 0.95)
	}
	return agg.Value(fn), nil
}

// fold is the one path from a query to its answer, for every function: it
// refuses an unknown fn before planning, plans [from, to) once, streams the
// sealed-tier prefix as window Partials and the raw tail as samples into step
// buckets, and hands each non-empty bucket to emit in time order, with its
// answer under fn. step <= 0 is one bucket anchored at from, handed on even
// when empty, so a whole-window reduction always answers. A raw plan is tier
// 0 — no prefix, all tail — and it is the only plan std and p95 get: a std
// bucket also keeps a stats.Online, and a p95 bucket gathers its values in
// the raw cursor's pooled scratch. It returns the plan it executed.
//
// Before the first bucket, a non-nil reserve learns an upper bound on how
// many buckets emit will see: the fewer of the window's step buckets and
// the windows and samples the plan's cursors hold. A caller that collects
// the buckets sizes its slice once by it, so a sparse series read over a
// wide window at a fine step reserves what it holds, not the window's span.
//
// Windows and samples arrive in time order and sums fold left to right, the
// order stats.Online and stats.Mean keep, so on a raw plan a finished bucket
// is bit-identical to the reference model's; a tier-served sum adds the same
// terms grouped by window. Both cursors are pooled, and emit takes the bucket
// by value so the accumulator stays on the stack: a fold of a mergeable
// function allocates nothing itself.
func (s *Store) fold(ss *storedSeries, from, to, step int64, fn AggFunc, reserve func(buckets int), emit func(start int64, agg Partial, v float64)) (QueryPlan, error) {
	gather := fn == AggP95 // the one function that needs the distribution
	if fn != AggStd && !gather && !MergeableAgg(fn) {
		return QueryPlan{}, fmt.Errorf("timeseries: unknown aggregation %q", fn)
	}
	if step > 0 {
		if err := checkBuckets(from, to); err != nil {
			return QueryPlan{}, err
		}
	}
	plan, tier := s.plan(ss, from, to, step, fn)
	var agg Partial
	var on stats.Online
	var vals []float64
	var err error
	start := from
	// flush hands the open bucket on, finished, and empties it.
	flush := func() {
		var v float64
		if v, err = finish(fn, &agg, &on, vals); err == nil {
			emit(start, agg, v)
		}
		agg, on, vals = Partial{}, stats.Online{}, vals[:0]
	}
	// enter makes the bucket holding t the open one, handing the finished
	// bucket on. Only bucketed folds (step > 0) get here.
	enter := func(t int64) {
		if agg.Count > 0 {
			flush()
		}
		start = from + (t-from)/step*step
	}
	tail := from
	var tcur, rcur *cursor
	if tier != nil {
		tail = plan.TierTo
		tcur = s.newTierCursor(ss, tier, from, tail) // from is tier-aligned
	}
	if reserve != nil {
		// Both cursors snapshot their chunks before either decodes, so
		// reserve sees the plan's whole read.
		rcur = s.newCursor(ss, tail, to)
		n := rcur.est
		if tcur != nil {
			n += tcur.est // a window is at least one record
		}
		if to > from && step > 0 {
			n = int(min(int64(n), (to-from-1)/step+1))
		}
		reserve(n)
	}
	if tcur != nil {
		var w Partial
		for {
			wStart, ok, err := nextRollupPoint(tcur, tier.step, &w)
			if err != nil {
				tcur.Close()
				if rcur != nil {
					rcur.Close()
				}
				return plan, err
			}
			if !ok {
				break
			}
			if step > 0 && wStart-start >= step {
				enter(wStart)
			}
			agg.addWindow(&w)
		}
		tcur.Close()
	}
	if rcur == nil {
		rcur = s.newCursor(ss, tail, to)
	}
	vals = rcur.vals
	for rcur.Next() {
		sm := rcur.cur
		if step > 0 && sm.T-start >= step {
			enter(sm.T)
		}
		agg.AddSample(sm.T, sm.V)
		if fn == AggStd {
			on.Add(sm.V)
		} else if gather {
			vals = append(vals, sm.V)
		}
	}
	if err = rcur.err; err == nil && (agg.Count > 0 || step <= 0) {
		flush()
	}
	rcur.vals = vals // hand the grown scratch back to the pool
	rcur.Close()
	return plan, err
}

// ReducePartial reduces one series over [from, to) to its mergeable partial
// aggregate and reports the plan that produced it: the sealed rollup prefix
// merges pre-computed window groups and only the unsealed tail streams raw
// samples. For any MergeableAgg fn, ReducePartial(...).Value(fn) is
// bit-identical to ReducePlanned(id, from, to, fn).
func (s *Store) ReducePartial(id metric.ID, from, to int64) (agg Partial, plan QueryPlan, err error) {
	ss, err := s.series(id)
	if err != nil {
		return Partial{}, QueryPlan{}, err
	}
	// A Partial answers every mergeable function; AggSum stands for them.
	plan, err = s.fold(ss, from, to, 0, AggSum, nil, func(_ int64, b Partial, _ float64) { agg = b })
	return agg, plan, err
}

// ReducePlanned is one fused aggregate over [from, to), served through the
// query planner, and how many samples it covered: the fold's one bucket,
// finished under fn. An empty window answers 0, but for p95, which errors.
func (s *Store) ReducePlanned(id metric.ID, from, to int64, fn AggFunc) (float64, int, error) {
	ss, err := s.series(id)
	if err != nil {
		return 0, 0, err
	}
	return s.reducePlanned(ss, from, to, fn)
}

// reducePlanned is the handle-resolved planned reduction: everything past
// the map lookup (building the key is the caller's amortizable cost, as with
// the cursor sweeps), and the part `make bench-longwindow` gates at 0
// allocs/op.
func (s *Store) reducePlanned(ss *storedSeries, from, to int64, fn AggFunc) (float64, int, error) {
	var v float64
	var n int64
	if _, err := s.fold(ss, from, to, 0, fn, nil, func(_ int64, b Partial, bv float64) { v, n = bv, b.Count }); err != nil {
		return 0, 0, err
	}
	return v, int(n), nil
}

// AggregatePartials buckets one series over [from, to) into step windows of
// mergeable partial aggregates and reports the plan that produced them. For
// any MergeableAgg fn, FinishPartials reproduces AggregatePlanned(id, from,
// to, step, fn) bit for bit; empty buckets are omitted, matching the AggPoint
// contract.
func (s *Store) AggregatePartials(id metric.ID, from, to, step int64) ([]PartialPoint, QueryPlan, error) {
	if step <= 0 {
		return nil, QueryPlan{}, errors.New("timeseries: step must be positive")
	}
	ss, err := s.series(id)
	if err != nil {
		return nil, QueryPlan{}, err
	}
	var out []PartialPoint
	plan, err := s.fold(ss, from, to, step, AggSum, func(n int) { out = make([]PartialPoint, 0, n) }, func(start int64, agg Partial, _ float64) {
		out = append(out, PartialPoint{Start: start, Agg: agg})
	})
	if err != nil || len(out) == 0 {
		return nil, plan, err
	}
	return out, plan, nil
}

// AggregatePlanned buckets one series into fixed windows of step
// milliseconds over [from, to) and applies fn per bucket, served through the
// query planner: buckets covered by sealed rollup windows merge pre-computed
// column groups (rollupStride records per tier window instead of every raw
// sample) and the rest streams off the raw cursor. Empty buckets are
// omitted.
func (s *Store) AggregatePlanned(id metric.ID, from, to, step int64, fn AggFunc) ([]AggPoint, error) {
	if step <= 0 {
		return nil, errors.New("timeseries: step must be positive")
	}
	ss, err := s.series(id)
	if err != nil {
		return nil, err
	}
	var out []AggPoint
	if _, err := s.fold(ss, from, to, step, fn, func(n int) { out = make([]AggPoint, 0, n) }, func(start int64, _ Partial, v float64) {
		out = append(out, AggPoint{Start: start, Value: v})
	}); err != nil || len(out) == 0 {
		return nil, err
	}
	return out, nil
}
