package timeseries

import (
	"fmt"
	"sort"

	"repro/internal/metric"
	"repro/internal/stats"
)

// cursor streams one series' samples with from <= T < to in timestamp order
// without materializing a sample slice. A cursor snapshots the series'
// chunk window under the per-series read lock — sealed chunks by pointer
// (they are immutable once full), the open chunk as a private byte copy —
// and then decodes lock-free, so a long scan never blocks appends.
//
// Every chunk, sealed or tail, raw or tier, streams its bitstream through
// one embedded, reusable iterator, a block at a time (ChunkIter.NextBlock)
// into scratch the pooled cursor keeps, and Next steps through that block,
// so a scan allocates nothing and leaves nothing decoded behind. Cursors are
// pooled per store — call Close to recycle one (using a cursor after Close
// is a no-op, not a crash). A cursor must not be shared across goroutines.
type cursor struct {
	store *Store
	from  int64
	to    int64
	tier  bool // the chunks are a rollup tier's; from/to are record stamps

	sealed    []*Chunk // immutable chunks overlapping the window, in order
	est       int      // upper bound on matching samples (sum of chunk counts)
	tail      []byte   // private copy of the open chunk's bitstream
	tailCount int
	tailDec   bool // the open chunk's code and layout
	tailOne   bool
	hasTail   bool

	pos int       // next sealed chunk to open
	it  ChunkIter // streaming decoder over the current chunk

	// The decode block (capacity blockLen, kept across Close) and the
	// in-window run of it Next still hands out from index bi.
	blkT []int64
	blkV []float64
	runT []int64
	runV []float64
	bi   int

	vals []float64 // pushdown scratch: p95 and raw-aggregate bucket values

	cur  metric.Sample
	err  error
	done bool
}

// cursor opens a streaming cursor over one series for [from, to). The
// returned cursor comes from the store's pool; Close it when done.
func (s *Store) cursor(id metric.ID, from, to int64) (*cursor, error) {
	ss := s.lookup(id.Key())
	if ss == nil {
		return nil, fmt.Errorf("timeseries: unknown series %s", id.Key())
	}
	return s.newCursor(ss, from, to), nil
}

// newCursor snapshots the raw chunk window of a resolved series.
func (s *Store) newCursor(ss *storedSeries, from, to int64) *cursor {
	cur := s.getCursor()
	cur.store, cur.from, cur.to = s, from, to
	ss.mu.RLock()
	cur.snapshotChunks(ss.chunks, s.chunkSize)
	ss.mu.RUnlock()
	return cur
}

// snapshotChunks fills the cursor's sealed/tail window from a chunk list —
// the raw series, whose last chunk is sealed once it holds sealCap samples,
// or one of its rollup tiers, whose last chunk never is. The caller must
// hold the series read lock and have set cur.from/cur.to.
func (cur *cursor) snapshotChunks(chunks []*Chunk, sealCap int) {
	// Seek the first chunk that may overlap [from, to): LastTime is
	// non-decreasing across chunks.
	lo := sort.Search(len(chunks), func(i int) bool { return chunks[i].LastTime() >= cur.from })
	for i := lo; i < len(chunks) && chunks[i].FirstTime() < cur.to; i++ {
		c := chunks[i]
		if c.Count() == 0 {
			continue
		}
		cur.est += c.Count()
		if c.Count() >= sealCap || i < len(chunks)-1 {
			// Sealed: append only ever touches the last chunk, and never
			// once it is full, so the pointer can be read lock-free for
			// the cursor's lifetime. (A raw chunk before the last is short
			// only where nextChunk cut it after one sample; a tier chunk
			// was trimmed when the next opened.)
			cur.sealed = append(cur.sealed, c)
			continue
		}
		// The mutable open chunk (always last): copy its bytes under the
		// lock so iteration races no concurrent append.
		cur.tail = append(cur.tail[:0], c.w.buf...)
		cur.tailCount = c.Count()
		cur.tailDec, cur.tailOne = c.dec, c.oneSample
		cur.hasTail = true
	}
}

// getCursor takes a cursor from the pool, tracking reuse.
func (s *Store) getCursor() *cursor {
	s.cursorGets.Add(1)
	if c, ok := s.cursors.Get().(*cursor); ok && c != nil {
		return c
	}
	s.cursorNews.Add(1)
	return &cursor{}
}

// Close recycles the cursor into its store's pool. Closing twice is safe.
func (cur *cursor) Close() {
	s := cur.store
	if s == nil {
		return
	}
	// Drop object references so pooled cursors pin no chunks; slice
	// capacity is what the pool exists to reuse.
	for i := range cur.sealed {
		cur.sealed[i] = nil
	}
	*cur = cursor{
		sealed: cur.sealed[:0],
		tail:   cur.tail[:0],
		blkT:   cur.blkT,
		blkV:   cur.blkV,
		vals:   cur.vals[:0],
	}
	s.cursors.Put(cur)
}

// blockLen is how many samples a cursor decodes per NextBlock: a default
// chunk's worth, so a raw chunk is typically one block.
const blockLen = 128

// nextBlock decodes the next run of in-window samples for Next, in timestamp
// order, or returns empty slices at the end of the window or on a decode
// error (see Err). The slices are the cursor's scratch, valid until the next
// call.
func (cur *cursor) nextBlock() ([]int64, []float64) {
	if cur.blkT == nil {
		cur.blkT, cur.blkV = make([]int64, blockLen), make([]float64, blockLen)
	}
	for !cur.done && cur.err == nil {
		n := cur.it.NextBlock(cur.blkT, cur.blkV) // a fresh cursor's zero iterator yields nothing
		if n == 0 {
			if err := cur.it.Err(); err != nil {
				cur.err = err
				cur.done = true
			} else if !cur.openNext() {
				cur.done = true
			}
			continue
		}
		ts := cur.blkT[:n]
		lo, hi := 0, n
		for lo < hi && ts[lo] < cur.from {
			lo++
		}
		if ts[n-1] >= cur.to {
			cur.done = true
			for hi > lo && ts[hi-1] >= cur.to {
				hi--
			}
		}
		if lo < hi {
			return ts[lo:hi], cur.blkV[lo:hi]
		}
	}
	return nil, nil
}

// Next advances to the next sample in range, returning false at the end of
// the window or on a decode error (see Err).
func (cur *cursor) Next() bool {
	if cur.bi == len(cur.runT) {
		cur.runT, cur.runV = cur.nextBlock()
		cur.bi = 0
		if len(cur.runT) == 0 {
			return false
		}
	}
	cur.cur = metric.Sample{T: cur.runT[cur.bi], V: cur.runV[cur.bi]}
	cur.bi++
	return true
}

// openNext arms the next chunk in the window: a sealed chunk or the tail
// copy.
func (cur *cursor) openNext() bool {
	if cur.pos < len(cur.sealed) {
		c := cur.sealed[cur.pos]
		cur.pos++
		cur.it.reset(c.w.bytes(), c.Count(), cur.tier, c.dec, c.oneSample)
		return true
	}
	if cur.hasTail {
		cur.hasTail = false
		cur.it.reset(cur.tail, cur.tailCount, cur.tier, cur.tailDec, cur.tailOne)
		return true
	}
	return false
}

// At returns the current sample.
func (cur *cursor) At() metric.Sample { return cur.cur }

// Err returns the first decode error encountered, if any.
func (cur *cursor) Err() error { return cur.err }

// Each streams the samples of one series in [from, to) to fn, stopping
// early when fn returns false. It is the zero-allocation way to feed an
// accumulator (histogram, online stats, model features) from the archive.
func (s *Store) Each(id metric.ID, from, to int64, fn func(metric.Sample) bool) error {
	cur, err := s.cursor(id, from, to)
	if err != nil {
		return err
	}
	defer cur.Close()
	for cur.Next() {
		if !fn(cur.cur) {
			break
		}
	}
	return cur.err
}

// Reduce computes one fused aggregate over [from, to) inside the cursor
// loop, returning the value and how many samples it covered. No sample
// slice is materialized: mean/min/max/sum/count/std stream through an
// online accumulator (numerically identical to the materializing path,
// which uses the same accumulator), rate needs only the window's first and
// last samples, and p95 gathers values in the cursor's pooled scratch.
//
// Reduce is the raw reduction. It is the only one that sees the
// distribution, so std and p95 end here whatever the entry point, and its
// sums never depend on how rollup windows group them, which is what callers
// comparing raw means rely on. Its answers, and the planned fold's, are
// checked against the reference model in internal/tsmodel.
func (s *Store) Reduce(id metric.ID, from, to int64, fn AggFunc) (float64, int, error) {
	cur, err := s.cursor(id, from, to)
	if err != nil {
		return 0, 0, err
	}
	defer cur.Close()
	var o stats.Online
	var first, last metric.Sample
	n := 0
	for cur.Next() {
		sm := cur.cur
		if n == 0 {
			first = sm
		}
		last = sm
		n++
		if fn == AggP95 {
			cur.vals = append(cur.vals, sm.V)
		} else {
			o.Add(sm.V)
		}
	}
	if cur.err != nil {
		return 0, 0, cur.err
	}
	switch fn {
	case AggMean:
		if n == 0 {
			return 0, 0, nil
		}
		return o.Summary().Sum / float64(n), n, nil
	case AggSum:
		return o.Summary().Sum, n, nil
	case AggMin:
		return o.Summary().Min, n, nil
	case AggMax:
		return o.Summary().Max, n, nil
	case AggCount:
		return float64(n), n, nil
	case AggStd:
		return o.Std(), n, nil
	case AggP95:
		v, err := stats.Quantile(cur.vals, 0.95)
		return v, n, err
	case AggRate:
		return rateOf(first, last, n), n, nil
	default:
		return 0, 0, fmt.Errorf("timeseries: unknown aggregation %q", fn)
	}
}

// rateOf is the per-second rate of change across a window's first and last
// samples (0 for fewer than two samples).
func rateOf(first, last metric.Sample, n int) float64 {
	if n < 2 || last.T == first.T {
		return 0
	}
	return (last.V - first.V) * 1000 / float64(last.T-first.T)
}

// aggregate buckets one series into fixed windows of step milliseconds over
// [from, to) by a raw scan and applies fn per bucket: the path std and p95
// take out of AggregatePlanned, since only the raw samples carry their
// distribution. Bucket values accumulate in the cursor's pooled scratch and
// reduce through applyAgg (rate through rateOf); empty buckets are omitted.
func (s *Store) aggregate(id metric.ID, from, to, step int64, fn AggFunc) ([]AggPoint, error) {
	if err := checkBuckets(from, to); err != nil {
		return nil, err
	}
	cur, err := s.cursor(id, from, to)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out []AggPoint
	var start, end int64
	var bFirst, bLast metric.Sample
	inBucket := false
	flush := func() error {
		if !inBucket {
			return nil
		}
		var v float64
		var err error
		if fn == AggRate {
			v = rateOf(bFirst, bLast, len(cur.vals))
		} else if v, err = applyAgg(cur.vals, fn); err != nil {
			return err
		}
		out = append(out, AggPoint{Start: start, Value: v})
		cur.vals = cur.vals[:0]
		inBucket = false
		return nil
	}
	for cur.Next() {
		sm := cur.cur
		if !inBucket || sm.T >= end {
			if err := flush(); err != nil {
				return nil, err
			}
			start = from + (sm.T-from)/step*step
			end = start + step
			bFirst = sm
			inBucket = true
		}
		cur.vals = append(cur.vals, sm.V)
		bLast = sm
	}
	if cur.err != nil {
		return nil, cur.err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}
