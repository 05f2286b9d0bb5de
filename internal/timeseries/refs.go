package timeseries

import (
	"errors"
	"sync/atomic"

	"repro/internal/metric"
)

// Series references: interned uint64 handles for the ingest hot path, the
// same idiom as Prometheus remote-write refs / Gorilla series IDs. Resolve
// pays the key build + hash + shard-map lookup once and hands back a
// SeriesRef; AppendRefs then appends by direct *storedSeries handle with no
// per-sample key work and no steady-state allocation.
//
// Coherence: a ref packs the store's ref epoch in its high 32 bits and a
// series slot (index into Store.refSeries, plus one so the zero SeriesRef
// is never valid) in its low 32 bits. Any operation that retires chunks out
// from under callers — Downsample, Retain, RetainTier — bumps the store
// epoch, instantly invalidating every outstanding ref; dump-restore builds
// a new store, which draws a fresh epoch from the same global counter, so
// refs can never be replayed across a restore either. AppendRefs rejects
// stale refs with ErrStaleRef and the caller re-resolves — slots themselves
// are stable for the life of a store, so re-resolving is cheap and the new
// ref addresses the same series.

// ErrStaleRef reports that a SeriesRef predates an epoch bump (Downsample,
// Retain, RetainTier or restore) and must be re-resolved.
var ErrStaleRef = errors.New("timeseries: stale series ref")

// SeriesRef is a stable interned handle for one series in one store:
// epoch<<32 | slot+1. The zero value is never a valid ref.
type SeriesRef uint64

// Epoch returns the store ref generation the handle was minted under.
func (r SeriesRef) Epoch() uint64 { return uint64(r) >> 32 }

// Slot returns the series' registration slot plus one. Slots are assigned
// in first-ingest order and remain stable across epoch bumps (but not
// across restores), which lets durability layers key per-series state by
// slot while still honoring epoch invalidation for appends.
func (r SeriesRef) Slot() uint32 { return uint32(r) }

// RefEntry is one sample addressed by ref instead of by metric ID.
type RefEntry struct {
	Ref SeriesRef
	T   int64
	V   float64
}

// refEpochCounter is process-global so every store — including one built by
// RestoreStore — draws a distinct epoch; refs are therefore never valid
// across store instances. Epochs are truncated to 32 bits; a collision
// would need 2^32 invalidations between minting and using a ref.
var refEpochCounter atomic.Uint64

func newRefEpoch() uint64 { return refEpochCounter.Add(1) & 0xFFFFFFFF }

func (s *Store) bumpRefEpoch() { s.refEpoch.Store(newRefEpoch()) }

// RefEpoch returns the store's current ref generation. Callers that cache
// refs (collector sinks, the cluster router, WAL replay) compare it against
// the epoch they resolved under to detect invalidation in O(1).
func (s *Store) RefEpoch() uint64 { return s.refEpoch.Load() }

func (s *Store) refFor(ss *storedSeries) SeriesRef {
	return SeriesRef(s.refEpoch.Load()<<32 | (uint64(ss.refIdx) + 1))
}

// Resolve interns id and returns a stable ref for its series, creating the
// series on first use (like an Append that carries no samples — the empty
// series is immediately visible to queries and dumps).
func (s *Store) Resolve(id metric.ID, kind metric.Kind, unit metric.Unit) (SeriesRef, error) {
	ss := s.getOrCreate(id.Key(), id, kind, unit)
	s.resolves.Add(1)
	return s.refFor(ss), nil
}

// LookupRef returns the current ref for an existing series without
// creating it.
func (s *Store) LookupRef(id metric.ID) (SeriesRef, bool) {
	ss := s.lookup(id.Key())
	if ss == nil {
		return 0, false
	}
	return s.refFor(ss), true
}

// RefInfo returns the identity of the series a ref addresses, or ok=false
// when the ref is stale or out of range.
func (s *Store) RefInfo(ref SeriesRef) (metric.ID, metric.Kind, metric.Unit, bool) {
	ss := s.refLookup(ref, s.refEpoch.Load(), s.refSnapshot())
	if ss == nil {
		return metric.ID{}, 0, "", false
	}
	return ss.id, ss.kind, ss.unit, true
}

// refSnapshot returns the current refSeries slice header. The slice is
// append-only and its elements are immutable once set, so indexing the
// snapshot stays safe after regMu is released; refs minted by this
// goroutine (or handed to it with ordinary synchronization) are always
// covered by a snapshot taken afterwards.
func (s *Store) refSnapshot() []*storedSeries {
	s.regMu.RLock()
	refs := s.refSeries
	s.regMu.RUnlock()
	return refs
}

func (s *Store) refLookup(ref SeriesRef, epoch uint64, refs []*storedSeries) *storedSeries {
	if ref.Epoch() != epoch {
		return nil
	}
	slot := ref.Slot()
	if slot == 0 || uint64(slot) > uint64(len(refs)) {
		return nil
	}
	return refs[slot-1]
}

// AppendRefs appends samples by ref, skipping key building, hashing and map
// lookups entirely. It returns how many samples were appended; stale or
// malformed refs and out-of-order samples are skipped and the first error
// is returned (errors.Is(err, ErrStaleRef) identifies invalidation — the
// caller re-resolves and retries; a stale batch with appended==0 is safe to
// retry wholesale). Steady-state appends perform zero allocations.
func (s *Store) AppendRefs(entries []RefEntry) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	epoch := s.refEpoch.Load()
	refs := s.refSnapshot()
	appended, stale := 0, 0
	var firstErr error
	var tally ingestTally
	for i := 0; i < len(entries); {
		ref := entries[i].Ref
		// A run of consecutive entries for one series takes its lock once.
		end := i + 1
		for end < len(entries) && entries[end].Ref == ref {
			end++
		}
		ss := s.refLookup(ref, epoch, refs)
		if ss == nil {
			stale += end - i
			if firstErr == nil {
				firstErr = ErrStaleRef
			}
			i = end
			continue
		}
		ss.mu.Lock()
		for ; i < end; i++ {
			if err := ss.append(s, entries[i].T, entries[i].V, &tally); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			appended++
		}
		ss.mu.Unlock()
	}
	if stale != 0 {
		s.staleRefs.Add(uint64(stale))
	}
	s.settle(&tally)
	s.refSamples.Add(uint64(appended))
	return appended, firstErr
}

// RefIngestStats are cumulative ref fast-path counters.
type RefIngestStats struct {
	Resolves   uint64 // Resolve calls (series interned or re-interned)
	RefSamples uint64 // samples appended through AppendRefs
	StaleRefs  uint64 // entries rejected for stale/malformed refs
	Epoch      uint64 // current ref generation
}

// RefStats returns the ref fast-path counters.
func (s *Store) RefStats() RefIngestStats {
	return RefIngestStats{
		Resolves:   s.resolves.Load(),
		RefSamples: s.refSamples.Load(),
		StaleRefs:  s.staleRefs.Load(),
		Epoch:      s.RefEpoch(),
	}
}

// RefAppender is the one ingest contract below the wire decoder: resolve a
// series to a handle once, then append by handle. Store and
// persist.DurableStore implement it; StoreSink, RefCache and the cluster
// router call nothing else. AppendBatch is in the method set only because
// the frozen bench/trace forwards it through this interface; it leaves with
// that forwarder (ROADMAP, "One ingest path").
type RefAppender interface {
	AppendBatch(entries []BatchEntry) (int, error)
	Resolve(id metric.ID, kind metric.Kind, unit metric.Unit) (SeriesRef, error)
	AppendRefs(entries []RefEntry) (int, error)
	RefEpoch() uint64
}
