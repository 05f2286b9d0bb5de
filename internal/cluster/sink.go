package cluster

import (
	"sync"

	"repro/internal/metric"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// seriesTable is the router's own series dictionary: the refs its wire
// sinks hand out, each naming a series' identity. It never resolves through
// the local store, which would register — and log WAL definitions for —
// series this node does not own; only the local append path's RefCache
// resolves there, for the series it lands. Append-only: a ref stays valid
// for the router's life, so the table's epoch never moves.
type seriesTable struct {
	mu     sync.RWMutex
	byKey  map[string]timeseries.SeriesRef
	series []tableSeries // ref-1 → series; an element never changes once set
}

// tableSeries is one series of the table. Its ID is interned, so routing
// and the local RefCache reuse its key.
type tableSeries struct {
	id   metric.ID
	kind metric.Kind
	unit metric.Unit
}

// resolve returns the series' ref, adding it on first sight.
func (t *seriesTable) resolve(id metric.ID, kind metric.Kind, unit metric.Unit) timeseries.SeriesRef {
	key := id.Key()
	t.mu.RLock()
	ref, ok := t.byKey[key]
	t.mu.RUnlock()
	if ok {
		return ref
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ref, ok := t.byKey[key]; ok {
		return ref
	}
	if t.byKey == nil {
		t.byKey = make(map[string]timeseries.SeriesRef)
	}
	t.series = append(t.series, tableSeries{id: id.Interned(), kind: kind, unit: unit})
	ref = timeseries.SeriesRef(len(t.series))
	t.byKey[key] = ref
	return ref
}

// entries rebuilds the keyed entries the router routes from ref entries,
// every ref one resolve handed out.
func (t *seriesTable) entries(refs []timeseries.RefEntry) []timeseries.BatchEntry {
	t.mu.RLock()
	series := t.series
	t.mu.RUnlock()
	out := make([]timeseries.BatchEntry, len(refs))
	for i, e := range refs {
		s := &series[e.Ref-1]
		out[i] = timeseries.BatchEntry{ID: s.id, Kind: s.kind, Unit: s.unit, T: e.T, V: e.V}
	}
	return out
}

// Sink is what the node's wire server lands agent batches in: each series
// an agent connection defines resolves once into the router's series table,
// and every batch is routed as AppendBatch routes it.
func (r *Router) Sink() wire.Sink { return agentSink{r} }

// agentSink is the router as the sink of agent ingest.
type agentSink struct{ r *Router }

func (s agentSink) Resolve(id metric.ID, kind metric.Kind, unit metric.Unit) (timeseries.SeriesRef, error) {
	return s.r.series.resolve(id, kind, unit), nil
}

func (s agentSink) AppendRefs(refs []timeseries.RefEntry) (int, error) {
	return s.r.route(s.r.series.entries(refs), true)
}

func (agentSink) RefEpoch() uint64 { return 0 }

// peerSink is the router as the sink of its cluster listener: batches peers
// forward, resolved in the same series table and delivered by
// applyForwarded.
type peerSink struct{ agentSink }

func (s peerSink) AppendRefs(refs []timeseries.RefEntry) (int, error) {
	s.r.applyForwarded(s.r.series.entries(refs))
	return len(refs), nil
}
