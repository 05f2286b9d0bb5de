package persist

import (
	"runtime"
	"sync"

	"repro/internal/timeseries"
)

// replayWindow is how many samples an Applier collects before it applies
// them. A window this size holds each series of a 4096-series fleet eight
// times, so a series' lock, chunk and tier state is taken once per window
// rather than once per sample, and the flush's fixed costs — the per-slot
// count, the hand-off to the workers — are spread thin. The window and its
// grouped copy take 1.5 MiB, which a replica holds for its life: twice
// that replayed no faster and added about a tenth to a three-node
// cluster's resident memory.
const replayWindow = 1 << 15

// Applier applies one ordered stream of WAL records to one store: the
// segments Open replays, and the records a replica pulls from its leader.
// Errors the original operation already tolerated (out-of-order rejections,
// undefined refs) are tolerated again, so the store it builds is
// byte-identical to the one the writer built.
//
// Samples are not applied record by record. Each is resolved to its series
// as its record is decoded and collected in a window of replayWindow
// samples; an opDefine still applies inline, in log order. The window is
// flushed when it is full, before an opRetain or opRetainTier record, and
// by Flush and Close. A flush groups the window by series with a stable
// counting sort on the store slot, so each series keeps the log's order,
// and splits it at series boundaries into runtime.GOMAXPROCS(0) shards: the
// caller's goroutine applies the first, workers the rest, and the flush
// returns when every shard is in. Appends to different series share nothing
// but the store's atomic counters, so the shard count does not change a
// byte of the result. With one shard no worker is started.
//
// An Applier is not safe for concurrent use.
type Applier struct {
	store   *timeseries.Store
	rt      *RefTable
	scratch []refSample // decode scratch for Apply

	win     []timeseries.RefEntry // collected samples, in log order
	grouped []timeseries.RefEntry // win grouped by series, the flush's output
	counts  []int32               // per store slot: samples in win, then where they go
	maxSlot uint32                // the highest slot in win

	shards int
	work   chan []timeseries.RefEntry // shards for the workers; nil while none run
	done   sync.WaitGroup             // shards handed out and not yet applied
}

// NewApplier returns an applier for a fresh record stream into store: it
// starts with no opDefine bindings.
func NewApplier(store *timeseries.Store) *Applier {
	return &Applier{store: store, rt: NewRefTable(), shards: runtime.GOMAXPROCS(0)}
}

// Apply decodes one WAL record payload, as SegmentReader streams them, and
// applies it; its samples may wait in the window until the next flush. A
// record with a retired op code or a reserved shape bit is
// ErrUnsupportedFormat: the writer runs a version whose log this one cannot
// apply.
func (a *Applier) Apply(payload []byte) error {
	rec, err := decodeRecord(payload, &a.scratch)
	if err != nil {
		return err
	}
	a.apply(rec)
	return nil
}

// apply applies one decoded record.
func (a *Applier) apply(rec walRecord) {
	switch rec.op {
	case opRetain:
		a.Flush()
		a.store.Retain(rec.cutoff)
	case opRetainTier:
		a.Flush()
		a.store.RetainTier(rec.step, rec.cutoff)
	case opDefine:
		a.rt.define(a.store, rec.ref, rec.id, rec.kind, rec.unit)
	case opAppendCols:
		a.collect(rec.refEntries)
	}
}

// collect resolves samples to their series and adds them to the window,
// flushing it whenever it fills.
func (a *Applier) collect(samples []refSample) {
	dense := a.rt.dense
	for i := range samples {
		e := &samples[i]
		var sref timeseries.SeriesRef
		if e.ref < uint64(len(dense)) {
			sref = dense[e.ref]
		} else if e.ref >= denseRefLimit {
			sref = a.rt.defs[e.ref].sref
		}
		if sref == 0 {
			continue // undefined ref: tolerated, like an unknown series
		}
		if len(a.win) == cap(a.win) {
			if cap(a.win) == 0 {
				buf := make([]timeseries.RefEntry, 2*replayWindow)
				a.win, a.grouped = buf[:0:replayWindow], buf[replayWindow:]
			} else {
				a.Flush()
			}
		}
		a.win = append(a.win, timeseries.RefEntry{Ref: sref, T: e.t, V: e.v})
		a.maxSlot = max(a.maxSlot, sref.Slot())
	}
}

// Flush applies every sample in the window and empties it.
func (a *Applier) Flush() {
	n := len(a.win)
	if n == 0 {
		return
	}
	grouped := a.group()
	// Shard k starts at the first series boundary at or after k/shards of
	// the window; the workers take the last shards, this goroutine the first.
	end := n
	for k := a.shards - 1; k > 0; k-- {
		cut := seriesStart(grouped, k*n/a.shards)
		if cut >= end {
			continue
		}
		a.hand(grouped[cut:end])
		end = cut
	}
	_, _ = a.store.AppendRefs(grouped[:end])
	a.done.Wait()
	a.win = a.win[:0]
	a.maxSlot = 0
}

// group sorts the window by store slot into a.grouped with a counting sort,
// which is stable: each series' samples keep the log's order.
func (a *Applier) group() []timeseries.RefEntry {
	if int(a.maxSlot) >= len(a.counts) {
		a.counts = make([]int32, a.maxSlot+1)
	}
	counts := a.counts[:a.maxSlot+1]
	for i := range a.win {
		counts[a.win[i].Ref.Slot()]++
	}
	var at int32
	for slot, c := range counts {
		counts[slot] = at
		at += c
	}
	grouped := a.grouped[:len(a.win)]
	for _, e := range a.win {
		slot := e.Ref.Slot()
		grouped[counts[slot]] = e
		counts[slot]++
	}
	clear(counts)
	return grouped
}

// seriesStart returns the first index at or after i where a new series
// begins in grouped, or len(grouped).
func seriesStart(grouped []timeseries.RefEntry, i int) int {
	for i > 0 && i < len(grouped) && grouped[i].Ref == grouped[i-1].Ref {
		i++
	}
	return i
}

// hand gives one shard to the workers, starting them on first use.
func (a *Applier) hand(shard []timeseries.RefEntry) {
	if a.work == nil {
		a.work = make(chan []timeseries.RefEntry, a.shards-1)
		for range a.shards - 1 {
			go applyShards(a.store, a.work, &a.done)
		}
	}
	a.done.Add(1)
	a.work <- shard
}

// applyShards is one worker: it appends each shard it is handed until the
// channel closes.
func applyShards(store *timeseries.Store, work <-chan []timeseries.RefEntry, done *sync.WaitGroup) {
	for shard := range work {
		_, _ = store.AppendRefs(shard)
		done.Done()
	}
}

// Close flushes the window and stops the workers. The applier stays usable:
// a later flush that needs them starts them again.
func (a *Applier) Close() {
	a.Flush()
	if a.work != nil {
		close(a.work)
		a.work = nil
	}
}
