package timeseries

import (
	"errors"
	"sync/atomic"

	"repro/internal/metric"
)

// Series references: interned uint64 handles for the ingest hot path, the
// same idiom as Prometheus remote-write refs / Gorilla series IDs. Resolve
// pays the key build + registry lookup once and hands back a
// SeriesRef; AppendRefs then appends by direct *storedSeries handle with no
// per-sample key work and no steady-state allocation.
//
// Coherence: a ref packs the store's ref epoch in its high 32 bits and a
// series slot (index into Store.refSeries, plus one so the zero SeriesRef
// is never valid) in its low 32 bits. The epoch names a store instance:
// NewStore draws it once from a process-global counter and it never
// changes. Series are append-only — retention drops whole chunks under the
// series lock, which serialises them against ref appends exactly as it
// does keyed ones, and a slot never moves — so a ref stays valid for the
// life of its store. A ref goes stale only when its store does: a
// dump-restore (or any other swap) builds a new store with a new epoch, and
// AppendRefs rejects the old store's refs with ErrStaleRef; the caller
// re-resolves against the store it now holds.

// ErrStaleRef reports that a SeriesRef was minted by a different store
// instance (one since restored or swapped out) and must be re-resolved.
var ErrStaleRef = errors.New("timeseries: stale series ref")

// SeriesRef is a stable interned handle for one series in one store:
// epoch<<32 | slot+1. The zero value is never a valid ref.
type SeriesRef uint64

// Epoch returns the epoch of the store instance that minted the handle.
func (r SeriesRef) Epoch() uint64 { return uint64(r) >> 32 }

// Slot returns the series' registration slot plus one. Slots are assigned
// in first-ingest order and are stable for the life of a store (but not
// across restores), which lets durability layers key per-series state by
// slot.
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
// would need 2^32 stores built between minting and using a ref.
var refEpochCounter atomic.Uint64

func newRefEpoch() uint64 { return refEpochCounter.Add(1) & 0xFFFFFFFF }

// RefEpoch returns the epoch naming this store instance. Callers that cache
// refs across a possible store swap (the collector's StoreSink) compare it
// against the epoch they resolved under to notice the swap in O(1).
func (s *Store) RefEpoch() uint64 { return s.refEpoch }

func (s *Store) refFor(ss *storedSeries) SeriesRef {
	return SeriesRef(s.refEpoch<<32 | (uint64(ss.refIdx) + 1))
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
	ss := s.refLookup(ref, s.refSnapshot())
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

func (s *Store) refLookup(ref SeriesRef, refs []*storedSeries) *storedSeries {
	if ref.Epoch() != s.refEpoch {
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
// is returned (errors.Is(err, ErrStaleRef) identifies a ref from another
// store instance). Steady-state appends perform zero allocations.
func (s *Store) AppendRefs(entries []RefEntry) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
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
		ss := s.refLookup(ref, refs)
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

// RefIngestStats are cumulative ref fast-path counters (a node's /stats
// refs section).
type RefIngestStats struct {
	Resolves   uint64 `json:"resolves"`    // Resolve calls (series interned or re-interned)
	RefSamples uint64 `json:"ref_samples"` // samples appended through AppendRefs
	StaleRefs  uint64 `json:"stale_refs"`  // entries rejected for stale/malformed refs
	Epoch      uint64 `json:"epoch"`       // the store instance's epoch
}

// RefStats returns the ref fast-path counters.
func (s *Store) RefStats() RefIngestStats {
	return RefIngestStats{
		Resolves:   s.resolves.Load(),
		RefSamples: s.refSamples.Load(),
		StaleRefs:  s.staleRefs.Load(),
		Epoch:      s.refEpoch,
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
