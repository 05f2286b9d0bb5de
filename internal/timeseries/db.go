package timeseries

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metric"
	"repro/internal/stats"
)

// ErrStoreClosed is returned (wrapped) by durable store wrappers whose
// backing log has been closed. It lives here so consumers (the collector's
// StoreSink) can distinguish "the whole store refused the batch" from
// per-sample rejections without importing the persistence layer.
var ErrStoreClosed = errors.New("timeseries: store closed")

// DefaultChunkSize is how many samples a chunk holds before a new one is
// started; 120 follows the Gorilla paper's two-hour blocks at 60 s cadence.
const DefaultChunkSize = 120

// numShards is the lock-stripe count: a power of two, so the key hash picks a
// stripe by mask. Sixteen stripes keep shard-map contention negligible up to
// dozens of cores while costing a few hundred bytes on small stores.
const numShards = 16

// Store is a concurrency-safe in-memory TSDB holding Gorilla-compressed
// series keyed by metric ID.
//
// Concurrency model: the store is lock-striped. Series are spread across
// numShards shards by FNV-1a hash of their key; a shard's RWMutex guards
// only its key→series map, and every series carries its own RWMutex
// guarding the chunk data. A reader decompressing one series therefore
// never serializes readers or writers of any other series, and appends to
// two series contend only when both the shard and the series collide.
// Registration order and the name index live behind a separate mutex that
// is only taken when a series is first created.
type Store struct {
	chunkSize int
	shards    [numShards]storeShard

	regMu  sync.RWMutex
	order  []metric.ID            // first-ingest order, for IDs/Select
	byName map[string][]metric.ID // metric name -> IDs in first-ingest order

	// refSeries maps ref slots (SeriesRef low bits, minus one) to live
	// series; guarded by regMu, append-only, elements immutable once set, so
	// a slice-header snapshot stays valid after regMu is released. refEpoch
	// names this store instance in every ref it mints (see refs.go); it is
	// drawn once by NewStore and never changes. resolves, refSamples and
	// staleRefs feed RefIngestStats.
	refSeries  []*storedSeries
	refEpoch   uint64
	resolves   atomic.Uint64
	refSamples atomic.Uint64
	staleRefs  atomic.Uint64

	// Rollup tier configuration and counters (see rollup.go). tierSteps is
	// immutable after construction; the counter slices parallel it.
	tierSteps   []int64
	tierSeries  []atomic.Uint64
	tierPicks   []atomic.Uint64
	rollupFolds atomic.Uint64
	rollupSeals atomic.Uint64
	planRaw     atomic.Uint64

	// cursors recycles Cursor objects (and their sealed/tail/vals scratch)
	// across queries; gets/news expose pool effectiveness (reuse = gets-news).
	cursors    sync.Pool
	cursorGets atomic.Uint64
	cursorNews atomic.Uint64
}

type storeShard struct {
	mu     sync.RWMutex
	series map[string]*storedSeries
}

type storedSeries struct {
	mu      sync.RWMutex
	id      metric.ID
	kind    metric.Kind
	unit    metric.Unit
	refIdx  uint32 // slot in Store.refSeries; set once under regMu at registration
	chunks  []*Chunk
	last    metric.Sample // cached most recent sample, valid when hasLast
	hasLast bool

	// tiers are the rollup resolutions this series maintains (rollup.go),
	// ascending by step. The slice is fixed at series creation (or restore);
	// tier contents are guarded by mu like the raw chunks.
	tiers []*tierState
}

// Option tunes a Store at construction.
type Option func(*Store)

// NewStore returns an empty store with the given samples-per-chunk (0 uses
// DefaultChunkSize) and optional tuning.
func NewStore(chunkSize int, opts ...Option) *Store {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	s := &Store{
		chunkSize: chunkSize,
		byName:    make(map[string][]metric.ID),
		refEpoch:  newRefEpoch(),
	}
	for _, opt := range opts {
		opt(s)
	}
	for i := range s.shards {
		s.shards[i].series = make(map[string]*storedSeries)
	}
	return s
}

// ChunkSize returns the samples-per-chunk setting; durability layers
// persist it so recovery rebuilds identical chunk boundaries.
func (s *Store) ChunkSize() int { return s.chunkSize }

// fnv32a hashes a series key (FNV-1a).
func fnv32a(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

func (s *Store) shardFor(key string) *storeShard {
	return &s.shards[fnv32a(key)&(numShards-1)]
}

// lookup returns the series for key, or nil when absent.
func (s *Store) lookup(key string) *storedSeries {
	sh := s.shardFor(key)
	sh.mu.RLock()
	ss := sh.series[key]
	sh.mu.RUnlock()
	return ss
}

// series resolves id for a read, or reports it unknown.
func (s *Store) series(id metric.ID) (*storedSeries, error) {
	if ss := s.lookup(id.Key()); ss != nil {
		return ss, nil
	}
	return nil, fmt.Errorf("timeseries: unknown series %s", id.Key())
}

// getOrCreate returns the series for key, creating and registering it on
// first use. Registration (order, byName, the ref slot) happens before the
// series is published in the shard map, so any series reachable via lookup
// already has a valid refIdx. Shard→registry lock nesting is safe: no path
// acquires a shard lock while holding regMu.
func (s *Store) getOrCreate(key string, id metric.ID, kind metric.Kind, unit metric.Unit) *storedSeries {
	sh := s.shardFor(key)
	sh.mu.RLock()
	ss := sh.series[key]
	sh.mu.RUnlock()
	if ss != nil {
		return ss
	}
	sh.mu.Lock()
	if ss = sh.series[key]; ss != nil {
		sh.mu.Unlock()
		return ss
	}
	// Stored (and therefore dumped) IDs stay plain: drop any interned key
	// cache so ref-ingested stores dump DeepEqual-identical to keyed ones.
	id = metric.ID{Name: id.Name, Labels: id.Labels}
	ss = &storedSeries{id: id, kind: kind, unit: unit, tiers: s.newTiers()}
	s.regMu.Lock()
	ss.refIdx = uint32(len(s.refSeries))
	s.refSeries = append(s.refSeries, ss)
	s.order = append(s.order, id)
	s.byName[id.Name] = append(s.byName[id.Name], id)
	s.regMu.Unlock()
	sh.series[key] = ss
	sh.mu.Unlock()
	return ss
}

// append adds one sample and folds it into the series' rollup tiers; the
// caller must hold ss.mu and settles tally with the store afterwards.
func (ss *storedSeries) append(s *Store, t int64, v float64, tally *ingestTally) error {
	if ss.hasLast && t <= ss.last.T {
		return fmt.Errorf("timeseries: out-of-order sample for %s: %d <= %d", ss.id.Key(), t, ss.last.T)
	}
	chunks, c := nextChunk(ss.chunks, s.chunkSize, t)
	ss.chunks = chunks
	if err := c.Append(t, v); err != nil {
		return err
	}
	c.trimIfFull(s.chunkSize)
	ss.last = metric.Sample{T: t, V: v}
	ss.hasLast = true
	for _, ts := range ss.tiers {
		if err := ts.fold(s, t, v, tally); err != nil {
			return err
		}
	}
	return nil
}

// Append ingests one sample for the identified series, creating it on first
// use. Out-of-order samples are rejected with an error, mirroring the
// monitoring-fabric ingest policy.
func (s *Store) Append(id metric.ID, kind metric.Kind, unit metric.Unit, t int64, v float64) error {
	key := id.Key()
	ss := s.getOrCreate(key, id, kind, unit)
	var tally ingestTally
	ss.mu.Lock()
	err := ss.append(s, t, v, &tally)
	ss.mu.Unlock()
	s.settle(&tally)
	return err
}

// BatchEntry is one sample of an AppendBatch call.
type BatchEntry struct {
	ID   metric.ID
	Kind metric.Kind
	Unit metric.Unit
	T    int64
	V    float64
}

// AppendBatch ingests a batch of samples in order, amortizing key hashing
// and lock acquisition across consecutive entries of the same series — the
// collector's per-scrape fast path. Per-sample ingest errors (out-of-order
// timestamps) do not abort the batch; AppendBatch returns how many samples
// were accepted plus the first error encountered.
//
// The keyed loop is kept, not made an adapter over Resolve + AppendRefs: it
// is the reference DESIGN §12's invariant and the parity/interleaving tests
// in refs_test.go check the ref path against, so it must share no code with
// that path above storedSeries.append.
func (s *Store) AppendBatch(entries []BatchEntry) (int, error) {
	appended := 0
	var firstErr error
	var prevKey string
	var prev *storedSeries
	var tally ingestTally
	defer s.settle(&tally)
	for i := range entries {
		e := &entries[i]
		key := e.ID.Key()
		ss := prev
		if ss == nil || key != prevKey {
			ss = s.getOrCreate(key, e.ID, e.Kind, e.Unit)
			prevKey, prev = key, ss
		}
		ss.mu.Lock()
		err := ss.append(s, e.T, e.V, &tally)
		ss.mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		appended++
	}
	return appended, firstErr
}

// NumSeries returns the number of distinct series.
func (s *Store) NumSeries() int {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return len(s.order)
}

// scanSeries walks every shard in order, invoking visit per series (without
// taking the series lock — visit picks its own lock mode). A shard's lock is
// held only while its series are copied out, never across visit.
func (s *Store) scanSeries(visit func(ss *storedSeries)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		batch := make([]*storedSeries, 0, len(sh.series))
		for _, ss := range sh.series {
			batch = append(batch, ss)
		}
		sh.mu.RUnlock()
		for _, ss := range batch {
			visit(ss)
		}
	}
}

// sumSeries sums fn over every series, each under its read lock.
func (s *Store) sumSeries(fn func(ss *storedSeries) int) int {
	total := 0
	s.scanSeries(func(ss *storedSeries) {
		ss.mu.RLock()
		total += fn(ss)
		ss.mu.RUnlock()
	})
	return total
}

// NumSamples returns the total stored sample count.
func (s *Store) NumSamples() int {
	return s.sumSeries(func(ss *storedSeries) int {
		n := 0
		for _, c := range ss.chunks {
			n += c.Count()
		}
		return n
	})
}

// CompressedBytes returns the compressed payload size of the raw chunks alone
// — what CompressionRatio sets against 16 bytes per raw sample. The rollup
// tiers' payload is RollupStats().Tiers[i].Bytes; resident chunk bytes are
// the sum.
func (s *Store) CompressedBytes() int {
	return s.sumSeries(func(ss *storedSeries) int {
		n := 0
		for _, c := range ss.chunks {
			n += c.Bytes()
		}
		return n
	})
}

// CompressionRatio returns raw size (16 bytes per sample) over the raw
// chunks' compressed size, or 0 when empty.
func (s *Store) CompressionRatio() float64 {
	comp := s.CompressedBytes()
	if comp == 0 {
		return 0
	}
	return float64(16*s.NumSamples()) / float64(comp)
}

// IDForKey resolves a canonical series key (metric.ID.Key()) back to the
// stored ID, so wire-level clients can address series by the string form
// the snapshot and dashboard endpoints expose.
func (s *Store) IDForKey(key string) (metric.ID, bool) {
	ss := s.lookup(key)
	if ss == nil {
		return metric.ID{}, false
	}
	return ss.id, true
}

// IDs returns every stored series ID in first-ingest order.
func (s *Store) IDs() []metric.ID {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return append([]metric.ID(nil), s.order...)
}

// Query returns the samples of one series with from <= T < to, materialized
// into a fresh slice. It is a thin compatibility wrapper over Cursor —
// callers that can consume samples one at a time should use Cursor, Each,
// Reduce, or Scan and skip the copy entirely.
func (s *Store) Query(id metric.ID, from, to int64) ([]metric.Sample, error) {
	cur, err := s.Cursor(id, from, to)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	out := make([]metric.Sample, 0, cur.est)
	for cur.Next() {
		out = append(out, cur.cur)
	}
	if cur.err != nil {
		return nil, cur.err
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// CursorPoolStats reports cursor acquisitions and pool misses since the
// store was created; gets-news is how many cursors were served from the
// pool with their scratch buffers intact.
func (s *Store) CursorPoolStats() (gets, news uint64) {
	return s.cursorGets.Load(), s.cursorNews.Load()
}

// QueryAll returns every sample of a series.
func (s *Store) QueryAll(id metric.ID) ([]metric.Sample, error) {
	return s.Query(id, -1<<62, 1<<62)
}

// Select returns the IDs of series whose name matches name (any when empty)
// and whose labels match the selector, in first-ingest order. Named lookups
// hit the name index instead of scanning every series.
func (s *Store) Select(name string, sel metric.Labels) []metric.ID {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	pool := s.order
	if name != "" {
		pool = s.byName[name]
	}
	var out []metric.ID
	for _, id := range pool {
		if !id.Labels.Matches(sel) {
			continue
		}
		out = append(out, id)
	}
	return out
}

// Latest returns the most recent sample of a series. It is O(1): Append
// maintains the cached last sample, so no chunk is decoded.
func (s *Store) Latest(id metric.ID) (metric.Sample, bool) {
	ss := s.lookup(id.Key())
	if ss == nil {
		return metric.Sample{}, false
	}
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	if !ss.hasLast {
		return metric.Sample{}, false
	}
	return ss.last, true
}

// AggFunc names a windowed aggregation.
type AggFunc string

// Supported aggregation functions.
const (
	AggMean  AggFunc = "mean"
	AggMin   AggFunc = "min"
	AggMax   AggFunc = "max"
	AggSum   AggFunc = "sum"
	AggCount AggFunc = "count"
	AggStd   AggFunc = "std"
	AggP95   AggFunc = "p95"
	// AggRate is the per-second rate of change between a window's first
	// and last samples (counter slope); windows with fewer than two
	// samples aggregate to 0.
	AggRate AggFunc = "rate"
)

// AggPoint is one aggregated window: Start is the window's opening
// timestamp.
type AggPoint struct {
	Start int64
	Value float64
}

// Aggregate buckets one series into fixed windows of step milliseconds over
// [from, to) and applies fn per bucket. Empty buckets are omitted. The
// aggregation is pushed down into the cursor loop: bucket values accumulate
// in the cursor's pooled scratch, so no sample slice is materialized.
//
// Like Reduce it has two jobs left: std and p95 per bucket (the distribution
// only a raw scan has), and the reference the parity tests and the chaos
// campaign hold AggregatePlanned and AggregatePartials to.
func (s *Store) Aggregate(id metric.ID, from, to, step int64, fn AggFunc) ([]AggPoint, error) {
	if step <= 0 {
		return nil, errors.New("timeseries: step must be positive")
	}
	cur, err := s.Cursor(id, from, to)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	return aggregateCursor(cur, from, step, fn)
}

func applyAgg(vals []float64, fn AggFunc) (float64, error) {
	switch fn {
	case AggMean:
		return stats.Mean(vals), nil
	case AggSum:
		sum, _ := stats.Summarize(vals)
		return sum.Sum, nil
	case AggMin:
		sum, _ := stats.Summarize(vals)
		return sum.Min, nil
	case AggMax:
		sum, _ := stats.Summarize(vals)
		return sum.Max, nil
	case AggCount:
		return float64(len(vals)), nil
	case AggStd:
		return stats.Std(vals), nil
	case AggP95:
		return stats.Quantile(vals, 0.95)
	default:
		return 0, fmt.Errorf("timeseries: unknown aggregation %q", fn)
	}
}

// Retain drops whole raw chunks whose newest sample is older than cutoff,
// returning how many samples were discarded. Rollup tiers are deliberately
// untouched — they are the long-horizon memory that outlives raw samples
// (age them separately with RetainTier). Long histories stay cheap this
// way, as the paper's descriptive tier requires: no series is ever
// rewritten, so outstanding refs stay valid.
func (s *Store) Retain(cutoff int64) int {
	dropped := 0
	s.scanSeries(func(ss *storedSeries) {
		ss.mu.Lock()
		keep := ss.chunks[:0]
		for _, c := range ss.chunks {
			if c.Count() > 0 && c.LastTime() < cutoff {
				dropped += c.Count()
				continue
			}
			keep = append(keep, c)
		}
		ss.chunks = keep
		if len(ss.chunks) == 0 {
			ss.hasLast = false
		}
		ss.mu.Unlock()
	})
	return dropped
}

// SeriesValues extracts just the values of a series in [from, to), a
// convenience for feeding analytics. Values stream directly off the cursor
// into the result slice — no intermediate sample slice is built.
func (s *Store) SeriesValues(id metric.ID, from, to int64) ([]float64, error) {
	cur, err := s.Cursor(id, from, to)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	out := make([]float64, 0, cur.est)
	for cur.Next() {
		out = append(out, cur.cur.V)
	}
	if cur.err != nil {
		return nil, cur.err
	}
	return out, nil
}

// Snapshot returns the latest value of every series matching the selector,
// ordered by series key: the "current system state vector" diagnostic
// analytics consumes.
func (s *Store) Snapshot(name string, sel metric.Labels) []SnapshotEntry {
	ids := s.Select(name, sel)
	out := make([]SnapshotEntry, 0, len(ids))
	for _, id := range ids {
		if sm, found := s.Latest(id); found {
			out = append(out, SnapshotEntry{ID: id, Sample: sm})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID.Key() < out[b].ID.Key() })
	return out
}

// SnapshotEntry pairs a series ID with its latest sample.
type SnapshotEntry struct {
	ID     metric.ID
	Sample metric.Sample
}
