package timeseries

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/metric"
)

// ErrStoreClosed is returned (wrapped) by durable store wrappers whose
// backing log has been closed. It lives here so consumers (the collector's
// StoreSink) can distinguish "the whole store refused the batch" from
// per-sample rejections without importing the persistence layer.
var ErrStoreClosed = errors.New("timeseries: store closed")

// DefaultChunkSize is how many samples a chunk holds before a new one is
// started; 120 follows the Gorilla paper's two-hour blocks at 60 s cadence.
const DefaultChunkSize = 120

// Store is a concurrency-safe in-memory TSDB holding Gorilla-compressed
// series keyed by metric ID.
//
// Concurrency model: one registry RWMutex, regMu, guards the key→series
// map, the ref slots and the name index, and every series carries its own
// RWMutex guarding the chunk data. A read holds regMu shared for one map
// lookup and then only its series' lock, so a reader decompressing one
// series never serializes readers or writers of any other series. regMu is
// taken exclusively only when a series is first created.
type Store struct {
	chunkSize int

	// The registry, guarded by regMu. byKey maps a series key to its
	// series, and byName a metric name to its series, in first-ingest order
	// (Select sorts what it returns by key).
	// refSeries maps ref slots (SeriesRef low bits, minus one) to series,
	// also in first-ingest order; it is append-only and its elements are
	// immutable once set, so a slice-header snapshot stays valid after regMu
	// is released. refEpoch names this store instance in every ref it mints
	// (see refs.go); it is drawn once by NewStore and never changes.
	// resolves, refSamples and staleRefs feed RefIngestStats.
	regMu      sync.RWMutex
	byKey      map[string]*storedSeries
	byName     map[string][]*storedSeries
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

	// cursors recycles cursor objects (and their sealed/tail/vals scratch)
	// across queries; gets/news expose pool effectiveness (reuse = gets-news).
	cursors    sync.Pool
	cursorGets atomic.Uint64
	cursorNews atomic.Uint64
}

type storedSeries struct {
	mu      sync.RWMutex
	id      metric.ID
	key     string // id.Key(), the registry's map key: Select's sort order
	kind    metric.Kind
	unit    metric.Unit
	refIdx  uint32 // slot in Store.refSeries; set once under regMu at registration
	chunks  []*Chunk
	x       colState      // the open raw chunk's value column
	delta   int64         // and its last timestamp delta
	cost    codeCost      // the open raw chunk's two codes, weighed (openRaw)
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
		byKey:     make(map[string]*storedSeries),
		byName:    make(map[string][]*storedSeries),
		refEpoch:  newRefEpoch(),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// ChunkSize returns the samples-per-chunk setting; durability layers
// persist it so recovery rebuilds identical chunk boundaries.
func (s *Store) ChunkSize() int { return s.chunkSize }

// lookup returns the series for key, or nil when absent.
func (s *Store) lookup(key string) *storedSeries {
	s.regMu.RLock()
	ss := s.byKey[key]
	s.regMu.RUnlock()
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
// first use: the key map, the ref slot and the name index are filled under
// one regMu write lock.
func (s *Store) getOrCreate(key string, id metric.ID, kind metric.Kind, unit metric.Unit) *storedSeries {
	if ss := s.lookup(key); ss != nil {
		return ss
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if ss := s.byKey[key]; ss != nil {
		return ss
	}
	// Stored (and therefore dumped) IDs stay plain: drop any interned key
	// cache so ref-ingested stores dump DeepEqual-identical to keyed ones.
	id = metric.ID{Name: id.Name, Labels: id.Labels}
	ss := &storedSeries{id: id, key: key, kind: kind, unit: unit, refIdx: uint32(len(s.refSeries)), tiers: s.newTiers()}
	s.refSeries = append(s.refSeries, ss)
	s.byKey[key] = ss
	s.byName[id.Name] = append(s.byName[id.Name], ss)
	return ss
}

// append adds one sample and folds it into the series' rollup tiers; the
// caller must hold ss.mu and settles tally with the store afterwards. A
// series whose raw chunks Retain dropped entirely still has its tiers' open
// windows, so their newest folded sample stays the out-of-order watermark.
func (ss *storedSeries) append(s *Store, t int64, v float64, tally *ingestTally) error {
	if ss.hasLast && t <= ss.last.T {
		return fmt.Errorf("timeseries: out-of-order sample for %s: %d <= %d", ss.id.Key(), t, ss.last.T)
	}
	if !ss.hasLast {
		for _, ts := range ss.tiers {
			if ts.acc.Active && t <= ts.acc.LastT {
				return fmt.Errorf("timeseries: out-of-order sample for %s: %d <= %d (rollup window)", ss.id.Key(), t, ts.acc.LastT)
			}
		}
	}
	chunks, c := nextChunk(ss.chunks, s.chunkSize, t)
	ss.chunks = chunks
	if c.count == 0 {
		c.dec = openRaw(&ss.cost, v, len(chunks) == 1)
		ss.x = colState{}
	}
	if err := c.append(t, v, &ss.delta, &ss.x, &ss.cost); err != nil {
		return err
	}
	c.trimIfFull(s.chunkSize)
	ss.last = metric.Sample{T: t, V: v}
	ss.hasLast = true
	for _, ts := range ss.tiers {
		if err := ts.fold(s, t, v, c.dec, tally); err != nil {
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
// is the reference DESIGN §12's invariant is stated against — the model
// suite's twin store is fed only through it, and the parity tests in
// refs_test.go check the ref path against it — so it must share no code
// with that path above storedSeries.append.
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
	return len(s.refSeries)
}

// scanSeries invokes visit on every series in first-ingest order, without
// taking the series lock (visit picks its own lock mode) or holding regMu
// across visit.
func (s *Store) scanSeries(visit func(ss *storedSeries)) {
	for _, ss := range s.refSnapshot() {
		visit(ss)
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

// CursorPoolStats reports cursor acquisitions and pool misses since the
// store was created; gets-news is how many cursors were served from the
// pool with their scratch buffers intact.
func (s *Store) CursorPoolStats() (gets, news uint64) {
	return s.cursorGets.Load(), s.cursorNews.Load()
}

// Select returns the IDs of series whose name matches name (any when empty)
// and whose labels match the selector, in key order (metric.ID.Key): an
// order that depends only on which series match, so a cluster can rebuild
// it from its members' answers. Named lookups hit the name index instead of
// scanning every series; Select("", nil) is every series.
func (s *Store) Select(name string, sel metric.Labels) []metric.ID {
	s.regMu.RLock()
	pool := s.refSeries
	if name != "" {
		pool = s.byName[name]
	}
	var match []*storedSeries
	for _, ss := range pool {
		if ss.id.Labels.Matches(sel) {
			match = append(match, ss)
		}
	}
	s.regMu.RUnlock()
	if len(match) == 0 {
		return nil
	}
	slices.SortFunc(match, func(a, b *storedSeries) int { return strings.Compare(a.key, b.key) })
	out := make([]metric.ID, len(match))
	for i, ss := range match {
		out[i] = ss.id
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

// SeriesValues returns the values of a series over [from, to), the form
// analytics consume, at a chosen display resolution. step <= 0
// streams every raw value directly off the cursor into the result slice (no
// intermediate sample slice is built); step > 0 returns per-bucket means
// computed through the planner, folded straight into the result slice, so a
// long dashboard window costs rollup windows, not raw samples. Either way
// the slice is sized once, by what the read's cursors hold. The step > 0
// output is identical whether a tier serves it or the raw fallback does.
func (s *Store) SeriesValues(id metric.ID, from, to, step int64) ([]float64, error) {
	if step > 0 {
		ss, err := s.series(id)
		if err != nil {
			return nil, err
		}
		var out []float64
		if _, err := s.fold(ss, from, to, step, AggMean, func(n int) { out = make([]float64, 0, n) }, func(_ int64, _ Partial, v float64) {
			out = append(out, v)
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	cur, err := s.cursor(id, from, to)
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
	return out
}

// SnapshotEntry pairs a series ID with its latest sample.
type SnapshotEntry struct {
	ID     metric.ID
	Sample metric.Sample
}
