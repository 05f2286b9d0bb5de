package timeseries

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Rollup tiers give the store multi-resolution retention: every raw append
// incrementally folds into per-tier window accumulators, and a sealed
// window is appended to the tier's own chunk list as a group of
// rollupStride consecutive records — one per accumulator column — stamped
// (winStart/step)*rollupStride+col. Window starts are strictly increasing and
// columns are appended in order, so the stamps are strictly monotonic, and
// consecutive windows are contiguous: every delta-of-delta is the '0' bit.
// A record's value is coded against the same column of the previous window
// in the chunk (Chunk.appendGroup), so a count that repeats, a sum that
// drifts and a first-sample offset that never moves each cost what they
// change by, not what the unrelated column beside them holds, and a window of
// one sample — every window of a tier at the raw cadence — codes that sample
// once: its other columns repeat it. A tier chunk takes the value code of
// the series' open raw chunk when it opens: decimal for a window of decimals
// — its extremes, first and last are decimals, its count and time offsets
// integers, and its sum one where the float sum is exact, escaping where it
// is not — and Gorilla's for a window of floats.
// Nothing is weighed for a tier: it seals a window for every raw sample at
// its own cadence, and choosing its code must cost less than writing it.
//
// Because a tier is just another chunk list hanging off the series, every
// existing mechanism applies unchanged: cursors snapshot sealed chunks by
// pointer and copy the open tail, Dump/RestoreStore carry tiers with the
// same checks (sealed chunks adopted, each tier's last re-encoded and
// byte-compared), and the persistence layer snapshots them like any other
// compressed data.
//
// The columns are chosen so the windowed aggregations the pushdown engine
// supports (mean, sum, min, max, count, rate) all resolve exactly from
// rollups: mean is Sum/Count, rate needs the window's true first and last
// samples, and min/max/count/sum are closed under merging.

// Canonical tier resolutions, in milliseconds.
const (
	TierStep1m = 60_000
	TierStep1h = 3_600_000
)

// Rollup column layout. One sealed window occupies rollupStride consecutive
// records in the tier chunk stream, in this order.
const (
	colCount = iota // samples folded into the window
	colSum          // sum of values (left-to-right, matching the raw path)
	colMin
	colMax
	colFirstT // the window's first sample, in ms past the window start
	colFirstV
	colLastT // its last sample, likewise: constant under a regular cadence
	colLastV
	rollupStride
)

// RollupAcc is one tier's open-window accumulator: the aggregate of the
// samples folded since the window opened, not yet sealed into chunks. It is
// part of a series dump because crash recovery must resume folding exactly
// where the live store stopped.
type RollupAcc struct {
	Active bool
	Start  int64 // window opening timestamp (multiple of the tier step)
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
	FirstT int64
	FirstV float64
	LastT  int64
	LastV  float64
}

// tierState is one rollup resolution of one series: the sealed windows as
// an encoded chunk stream plus the open-window accumulator. Guarded by the
// owning series' mutex, exactly like the raw chunks.
type tierState struct {
	step   int64
	chunks []*Chunk
	acc    RollupAcc
	// pred, delta and written are the coder state of the tier's last chunk —
	// the column predictors the next sealed window's values are coded
	// against, the timestamp delta its first record's is, and how many
	// records the chunk's stream writes (groupWrites) — and are zeroed when
	// a chunk opens, so every chunk decodes on its own.
	pred    [rollupStride]colState
	delta   int64
	written int
}

// groupWrites is how many records a window of the given count writes in a
// tier chunk of the layout oneSample names (Chunk.oneSample): three for a
// window of one sample in the one-sample layout — its count, sum and first
// offset, Chunk.appendGroup implying the other five — and a whole group of
// rollupStride for every other window. A tier chunk holds as many written
// records as a raw chunk holds samples (the store's chunk size), which
// bounds what decoding or re-encoding one costs: at the default 120, 15
// windows, or 40 where each window is one sample.
func groupWrites(oneSample bool, count float64) int {
	if oneSample && count == 1 {
		return 3
	}
	return rollupStride
}

// floorDiv is integer division rounding toward negative infinity, so
// window alignment is correct for pre-epoch timestamps too.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// floorMod is the non-negative remainder matching floorDiv.
func floorMod(a, b int64) int64 { return a - floorDiv(a, b)*b }

// WithRollups enables automatic downsampled rollup tiers at the given
// resolutions (milliseconds per window, e.g. TierStep1m, TierStep1h).
// Every series created afterwards folds its appends into one accumulator
// per tier; sealed windows become first-class shadow data served by the
// query planner (AggregatePlanned, ReducePlanned and the Partial entry
// points). Steps are deduplicated and kept sorted; non-positive steps are
// ignored.
func WithRollups(steps ...int64) Option {
	return func(s *Store) {
		var cleaned []int64
		for _, st := range steps {
			if st <= 0 {
				continue
			}
			dup := false
			for _, have := range cleaned {
				if have == st {
					dup = true
					break
				}
			}
			if !dup {
				cleaned = append(cleaned, st)
			}
		}
		sort.Slice(cleaned, func(i, j int) bool { return cleaned[i] < cleaned[j] })
		s.tierSteps = cleaned
		s.tierSeries = make([]atomic.Uint64, len(cleaned))
		s.tierPicks = make([]atomic.Uint64, len(cleaned))
	}
}

// newTiers builds the tier states a freshly created series starts with.
func (s *Store) newTiers() []*tierState {
	if len(s.tierSteps) == 0 {
		return nil
	}
	tiers := make([]*tierState, len(s.tierSteps))
	for i, st := range s.tierSteps {
		tiers[i] = &tierState{step: st}
		s.tierSeries[i].Add(1)
	}
	return tiers
}

// countTierSeries bumps the per-step series counter for a restored tier.
func (s *Store) countTierSeries(step int64) {
	for i, st := range s.tierSteps {
		if st == step {
			s.tierSeries[i].Add(1)
			return
		}
	}
}

// ingestTally is what one ingest call owes the store's rollup counters. The
// per-sample path adds to it under the series lock and the call settles it
// once (Store.settle), instead of two or three locked adds per sample.
type ingestTally struct {
	folds, seals uint64
}

func (s *Store) settle(tally *ingestTally) {
	if tally.folds != 0 {
		s.rollupFolds.Add(tally.folds)
	}
	if tally.seals != 0 {
		s.rollupSeals.Add(tally.seals)
	}
}

// fold advances one tier's accumulator with a new raw sample, which went
// into a decimal raw chunk when raw is set; the caller must hold the series
// write lock. Samples arrive in strictly increasing timestamp order (the raw
// append path enforces it before folding), so a sample either extends the
// open window or seals it and opens the next.
func (ts *tierState) fold(s *Store, t int64, v float64, raw bool, tally *ingestTally) error {
	a := &ts.acc
	if a.Active {
		// The common case needs no division: t is in the open window.
		if d := t - a.Start; d >= 0 && d < ts.step {
			a.Count++
			a.Sum += v
			if v < a.Min {
				a.Min = v
			}
			if v > a.Max {
				a.Max = v
			}
			a.LastT, a.LastV = t, v
			tally.folds++
			return nil
		}
		if t < a.Start {
			// Unreachable: the append path refuses t <= LastT even after
			// Retain emptied the raw series. Dropping is the deterministic
			// degradation if it ever happens.
			return nil
		}
		if err := ts.seal(s, raw, tally); err != nil {
			return err
		}
	}
	ts.acc = RollupAcc{
		Active: true, Start: floorDiv(t, ts.step) * ts.step, Count: 1,
		Sum: v, Min: v, Max: v,
		FirstT: t, FirstV: v, LastT: t, LastV: v,
	}
	tally.folds++
	return nil
}

// seal appends the open window's column group to the tier's chunk stream
// and deactivates the accumulator; the caller must hold the series write
// lock, and raw is fold's. The two time columns go down as offsets from the
// window start, which are exact and, under a regular cadence, the same in
// every window.
func (ts *tierState) seal(s *Store, raw bool, tally *ingestTally) error {
	a := &ts.acc
	vals := [rollupStride]float64{
		colCount:  float64(a.Count),
		colSum:    a.Sum,
		colMin:    a.Min,
		colMax:    a.Max,
		colFirstT: float64(a.FirstT - a.Start),
		colFirstV: a.FirstV,
		colLastT:  float64(a.LastT - a.Start),
		colLastV:  a.LastV,
	}
	if err := ts.appendWindow(s.chunkSize, a.Start/ts.step, &vals, raw); err != nil {
		return fmt.Errorf("timeseries: rollup seal: %w", err)
	}
	a.Active = false
	tally.seals++
	return nil
}

// appendWindow writes window number win (its start over the tier step) as one
// group stamped win*rollupStride+col: into the open chunk while the records
// its stream writes (groupWrites) stay within limit, or into a new chunk.
// Only a group's first record opens a chunk — which is what lets a decoder
// tell a record's column from its position — and a chunk that opens starts
// from a zero coder state, in the one-sample window layout
// (Chunk.oneSample), and decimal-coded when raw is set. The chunk it
// replaces is trimmed to its exact length then, under the same series lock,
// before any cursor reads it as sealed: a tier chunk can be full below limit
// written records, and only the next chunk's opening tells. A window of count
// 1 whose other columns do not repeat its sample, which no fold seals, is
// refused: that layout codes the sample once.
func (ts *tierState) appendWindow(limit int, win int64, vals *[rollupStride]float64, raw bool) error {
	if vals[colCount] == 1 && !oneSampleWindow(vals) {
		return fmt.Errorf("window %d: count 1, but its columns are not one sample's", win)
	}
	n := len(ts.chunks)
	if n == 0 || ts.written+groupWrites(ts.chunks[n-1].oneSample, vals[colCount]) > limit {
		var c *Chunk
		if n == 0 {
			c = NewChunk()
		} else {
			last := ts.chunks[n-1]
			c = openAfter(last)
			last.trim()
		}
		c.dec, c.oneSample = raw, true
		ts.chunks = append(ts.chunks, c)
		ts.pred, ts.delta, ts.written = [rollupStride]colState{}, 0, 0
	}
	c := ts.chunks[len(ts.chunks)-1]
	if err := c.appendGroup(win*rollupStride, vals, &ts.pred, &ts.delta); err != nil {
		return err
	}
	ts.written += groupWrites(c.oneSample, vals[colCount])
	return nil
}

// oneSampleWindow reports whether a window's min, max, first and last value
// are its sum, and its last offset its first, bit for bit: what the fold
// seals for a window of one sample.
func oneSampleWindow(vals *[rollupStride]float64) bool {
	v, t := math.Float64bits(vals[colSum]), math.Float64bits(vals[colFirstT])
	return math.Float64bits(vals[colMin]) == v && math.Float64bits(vals[colMax]) == v &&
		math.Float64bits(vals[colFirstV]) == v && math.Float64bits(vals[colLastV]) == v &&
		math.Float64bits(vals[colLastT]) == t
}

// windowOf is the start of the window a tier record stamp belongs to.
func (ts *tierState) windowOf(stamp int64) int64 { return floorDiv(stamp, rollupStride) * ts.step }

// sealedRange reports the first and last sealed window starts; the caller
// must hold the series lock in either mode. ok is false when no window has
// sealed yet.
func (ts *tierState) sealedRange() (first, last int64, ok bool) {
	n := len(ts.chunks)
	for n > 0 && ts.chunks[n-1].Count() == 0 {
		n--
	}
	if n == 0 {
		return 0, 0, false
	}
	return ts.windowOf(ts.chunks[0].FirstTime()), ts.windowOf(ts.chunks[n-1].LastTime()), true
}

// RetainTier drops sealed rollup windows of the given tier resolution whose
// window start is older than cutoff, across every series, returning how
// many windows were discarded. Like raw Retain it drops whole chunks, each
// once its newest window is older than cutoff, so a window outlives cutoff
// by at most its chunk's span: 15 windows, or up to 40 where the windows
// hold one sample each (groupWrites). Raw data and other tiers are
// untouched, so the tiers age out independently: raw days, minutely weeks,
// hourly years.
func (s *Store) RetainTier(step, cutoff int64) int {
	dropped := 0
	s.scanSeries(func(ss *storedSeries) {
		ss.mu.Lock()
		for _, ts := range ss.tiers {
			if ts.step != step {
				continue
			}
			keep := ts.chunks[:0]
			for _, c := range ts.chunks {
				if c.Count() > 0 && ts.windowOf(c.LastTime()) < cutoff {
					dropped += c.Count() / rollupStride
					continue
				}
				keep = append(keep, c)
			}
			ts.chunks = keep
		}
		ss.mu.Unlock()
	})
	return dropped
}

// --- query planning ----------------------------------------------------

// QueryPlan is the tier decision for one aggregation query: rollups of
// TierStep resolution serve [from, TierTo) and the raw series serves the
// unsealed tail [TierTo, to). TierStep 0 means a pure raw scan.
type QueryPlan struct {
	TierStep int64
	TierTo   int64
}

// plan decides how the store serves an aggregation of fn over [from, to) at
// the given step (step <= 0 plans a single whole-window reduction), and counts
// the decision. The planner picks the coarsest tier that answers exactly:
//
//   - fn must resolve from the rollup columns (MergeableAgg); std and p95
//     need the distribution, which only the raw samples carry;
//   - from must sit on a tier window boundary, and for bucketed queries the
//     step must be a whole number of tier windows, so every requested bucket
//     is a union of tier windows;
//   - the tier's sealed history must reach back to from; the part of the
//     range past the last sealed window — the unsealed tail — falls back to
//     the raw series.
//
// Any query the planner cannot prove exact plans as a raw scan (tier 0). Only
// fold calls it, once per query, so the counters in RollupStats count executed
// queries and the plan an answer carries is the one that ran. The tier that
// won comes back with the plan (nil for a raw scan).
func (s *Store) plan(ss *storedSeries, from, to, step int64, fn AggFunc) (QueryPlan, *tierState) {
	if MergeableAgg(fn) && to > from {
		for i := len(ss.tiers) - 1; i >= 0; i-- {
			ts := ss.tiers[i]
			if step > 0 && step%ts.step != 0 {
				continue
			}
			if floorMod(from, ts.step) != 0 {
				continue
			}
			ss.mu.RLock()
			first, last, ok := ts.sealedRange()
			ss.mu.RUnlock()
			if !ok || first > from {
				continue
			}
			cut := floorDiv(to, ts.step) * ts.step
			if sealedEnd := last + ts.step; cut > sealedEnd {
				cut = sealedEnd
			}
			if cut <= from {
				continue
			}
			s.countTierPick(ts.step)
			return QueryPlan{TierStep: ts.step, TierTo: cut}, ts
		}
	}
	s.planRaw.Add(1)
	return QueryPlan{}, nil
}

// countTierPick bumps the planner counter of the tier that won.
func (s *Store) countTierPick(step int64) {
	for i, st := range s.tierSteps {
		if st == step {
			s.tierPicks[i].Add(1)
			return
		}
	}
}

// newTierCursor opens a pooled cursor over a tier's encoded chunk stream
// covering window starts in [winFrom, winTo), both multiples of the tier
// step. It shares everything with raw cursors: the sealed-pointer/tail-copy
// snapshot, the pool and the streaming decoder.
func (s *Store) newTierCursor(ss *storedSeries, ts *tierState, winFrom, winTo int64) *cursor {
	cur := s.getCursor()
	cur.store, cur.tier = s, true
	cur.from, cur.to = winFrom/ts.step*rollupStride, winTo/ts.step*rollupStride
	ss.mu.RLock()
	// A tier's last chunk is never read as sealed, full or not: only the
	// next chunk's opening trims it (tierState.appendWindow).
	cur.snapshotChunks(ts.chunks, math.MaxInt)
	ss.mu.RUnlock()
	return cur
}

// nextRollupPoint decodes the next whole window group off a cursor over a
// tier of the given step into w — a sealed window is a Partial on disk, column
// for column, its two timestamps relative to the window start — returning the
// window start, and ok=false at the end of the window range.
func nextRollupPoint(cur *cursor, step int64, w *Partial) (start int64, ok bool, err error) {
	if !cur.Next() {
		return 0, false, cur.Err()
	}
	sm := cur.At()
	base := sm.T
	if floorMod(base, rollupStride) != 0 {
		return 0, false, fmt.Errorf("timeseries: rollup stream misaligned at %d", base)
	}
	start = base / rollupStride * step
	w.Count = int64(sm.V)
	for col := colSum; col < rollupStride; col++ {
		if !cur.Next() {
			if err := cur.Err(); err != nil {
				return 0, false, err
			}
			return 0, false, fmt.Errorf("timeseries: truncated rollup group at window %d", start)
		}
		sm = cur.At()
		if sm.T != base+int64(col) {
			return 0, false, fmt.Errorf("timeseries: rollup stream misaligned at %d", sm.T)
		}
		switch col {
		case colSum:
			w.Sum = sm.V
		case colMin:
			w.Min = sm.V
		case colMax:
			w.Max = sm.V
		case colFirstT:
			w.FirstT = start + int64(sm.V)
		case colFirstV:
			w.FirstV = sm.V
		case colLastT:
			w.LastT = start + int64(sm.V)
		case colLastV:
			w.LastV = sm.V
		}
	}
	return start, true, nil
}

// --- instrumentation ---------------------------------------------------

// TierStat is one tier's instrumentation snapshot.
type TierStat struct {
	Step    int64  // window resolution in ms
	Series  uint64 // series carrying this tier
	Picks   uint64 // planner decisions served by this tier
	Bytes   int    // compressed payload of the tier's sealed windows, resident now
	Windows int    // sealed windows resident now
	Chunks  int    // chunks holding them
}

// RollupStats reports rollup maintenance and planner counters since the
// store was created.
type RollupStats struct {
	Folds    uint64 // samples folded into tier accumulators
	Seals    uint64 // windows sealed into tier chunks
	RawPlans uint64 // planner decisions that fell back to a raw scan
	Tiers    []TierStat
}

// RollupStats returns the rollup fold/seal and planner tier-selection
// counters, and what each tier holds in memory: one pass over the series,
// each under its read lock.
func (s *Store) RollupStats() RollupStats {
	st := RollupStats{
		Folds:    s.rollupFolds.Load(),
		Seals:    s.rollupSeals.Load(),
		RawPlans: s.planRaw.Load(),
	}
	sizes := make([]struct{ bytes, records, chunks int }, len(s.tierSteps))
	if len(sizes) > 0 {
		s.scanSeries(func(ss *storedSeries) {
			ss.mu.RLock()
			for _, ts := range ss.tiers {
				for i, step := range s.tierSteps {
					if step != ts.step {
						continue
					}
					sz := &sizes[i]
					sz.chunks += len(ts.chunks)
					for _, c := range ts.chunks {
						sz.bytes += c.Bytes()
						sz.records += c.Count()
					}
				}
			}
			ss.mu.RUnlock()
		})
	}
	for i, step := range s.tierSteps {
		t := TierStat{Step: step, Series: s.tierSeries[i].Load(), Picks: s.tierPicks[i].Load(),
			Bytes: sizes[i].bytes, Windows: sizes[i].records / rollupStride, Chunks: sizes[i].chunks}
		st.Tiers = append(st.Tiers, t)
	}
	return st
}
