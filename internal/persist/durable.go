package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// Options tunes a durable store.
type Options struct {
	// ChunkSize is the TSDB samples-per-chunk for a fresh store (0 uses the
	// timeseries default). When a snapshot exists its recorded chunk size
	// wins, because replay must rebuild identical chunk boundaries.
	ChunkSize int
	// StoreOptions tune the underlying store (the rollup tiers).
	StoreOptions []timeseries.Option
	// SegmentSize rotates WAL segments at this byte size (0 = 8 MiB).
	SegmentSize int64
	// Fsync picks the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval cadence (0 = 100ms).
	FsyncEvery time.Duration
	// SnapshotInterval checkpoints on a cadence (0 = only on Close or an
	// explicit Checkpoint call).
	SnapshotInterval time.Duration
}

// Stats reports the durable store's recovery and IO counters. Its JSON form
// is the persist section of a node's /stats, where the two durations appear
// in seconds.
type Stats struct {
	// Segments and SegmentBytes describe the live WAL files on disk.
	Segments     int   `json:"segments"`
	SegmentBytes int64 `json:"segment_bytes"`
	// WALRecords / WALBytes count records appended since Open.
	WALRecords uint64 `json:"wal_records"`
	WALBytes   uint64 `json:"wal_bytes"`
	// Fsyncs counts fsync syscalls; CoalescedSyncs counts sync requests a
	// concurrent group-commit leader satisfied for free.
	Fsyncs         uint64 `json:"fsyncs"`
	CoalescedSyncs uint64 `json:"coalesced_syncs"`
	// Checkpoints counts snapshots written since Open; SnapshotBytes is the
	// newest snapshot's file size.
	Checkpoints   uint64 `json:"checkpoints"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	// Recovery describes what Open found: whether a snapshot was restored,
	// how many WAL segments and records were replayed on top of it, how
	// many torn tails were truncated, and how many segments written after a
	// tear were set aside as *.seg.lost instead of replayed over the gap.
	SnapshotLoaded   bool   `json:"snapshot_loaded"`
	ReplayedSegments int    `json:"replayed_segments"`
	ReplayedRecords  uint64 `json:"replayed_records"`
	TruncatedTails   int    `json:"truncated_tails"`
	TruncatedBytes   int64  `json:"truncated_bytes"`
	LostSegments     int    `json:"lost_segments"`
	// What recovery cost: ReplayedSamples landed in the store from replayed
	// records, ReplayDuration covers reading and replaying every segment
	// (ReplayDuration / ReplayedSamples is the recovery cost per sample),
	// and SnapshotLoadDuration covers finding, verifying and restoring the
	// snapshot. Both are zero where that step had nothing to do.
	ReplayedSamples      uint64        `json:"replayed_samples"`
	ReplayDuration       time.Duration `json:"-"`
	SnapshotLoadDuration time.Duration `json:"-"`
}

// DurableStore wraps a timeseries.Store with write-ahead logging and
// snapshot checkpoints. Every mutating operation is logged before it is
// applied, so a crash at any instant recovers to a store byte-identical to
// the acknowledged prefix. Reads go straight to Store() — durability adds
// nothing to the query path. Mutations MUST go through the wrapper;
// writing to Store() directly bypasses the log and diverges recovery.
type DurableStore struct {
	store *timeseries.Store
	wal   *wal
	dir   string
	opts  Options

	// mu excludes checkpoints from mutating ops: ops hold it shared, a
	// checkpoint holds it exclusively across dump+rotate so the snapshot
	// matches the WAL cut exactly. opMu additionally serializes log+apply
	// so WAL order equals apply order — replay must reproduce the same
	// winner for racing same-series appends. Both are held only across
	// in-memory work; fsync happens after release, where group commit
	// batches concurrent acknowledgements.
	mu     sync.RWMutex
	opMu   sync.Mutex
	closed bool

	// WAL-ref dictionary for the ref ingest fast path, guarded by opMu
	// (checkpoints touch it under the exclusive d.mu instead, which equally
	// excludes every op). walRefs binds store ref slots — stable for the
	// life of a store instance, dense from 1 — to the uvarint refs used in
	// opDefine / opAppendCols records: walRefs[slot] is the slot's WAL ref,
	// 0 while it has none (WAL refs start at 1). A checkpoint clears it, so
	// post-snapshot segments are self-contained (every ref they use is
	// re-defined within them). refEnc/refVals/refValid/refWAL/refIn are
	// reused scratch.
	walRefs    []uint64
	nextWALRef uint64
	refEnc     []byte
	refVals    []float64 // the value column of refEnc's append record
	refValid   []timeseries.RefEntry
	refWAL     []uint64              // refValid's WAL refs, index for index
	refIn      []timeseries.RefEntry // AppendBatch's resolved entries

	ckptMu sync.Mutex // serializes whole checkpoints (ticker vs Close)

	checkpoints   atomic.Uint64
	snapshotBytes atomic.Int64

	recovery struct {
		snapshotLoaded   bool
		replayedSegments int
		replayedRecords  uint64
		truncatedTails   int
		truncatedBytes   int64
		lostSegments     int
		replayedSamples  uint64
		replay           time.Duration
		snapshotLoad     time.Duration
	}

	stop chan struct{}
	bg   sync.WaitGroup
}

// Open recovers (or creates) a durable store in dir: it loads the newest
// valid snapshot, replays every newer WAL segment — truncating a torn tail
// at the first corrupt record and setting aside, as *.seg.lost, any segment
// written after it — and appends new writes to a fresh WAL segment, or to
// the last one when it holds nothing but its header. Recovery is
// idempotent: reopening without writes replays to the identical store and
// leaves the directory's segments as they were.
// Intact data in a format this version does not read is not a tear: Open
// returns ErrUnsupportedFormat and changes nothing on disk.
func Open(dir string, opts Options) (*DurableStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &DurableStore{dir: dir, opts: opts, stop: make(chan struct{})}

	// Newest valid snapshot wins; damaged ones fall back to older, then to
	// an empty store with full WAL replay.
	snaps, err := listSeqFiles(dir, "snap-", ".snap")
	if err != nil {
		return nil, err
	}
	startSeq := uint64(0) // replay segments with seq >= startSeq
	began := time.Now()
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := loadSnapshot(snaps[i].path, opts.StoreOptions)
		if errors.Is(err, ErrUnsupportedFormat) {
			return nil, err
		}
		if err != nil {
			continue
		}
		d.store = st
		d.recovery.snapshotLoaded = true
		startSeq = snaps[i].seq
		break
	}
	if len(snaps) > 0 {
		d.recovery.snapshotLoad = time.Since(began)
	}
	if d.store == nil {
		d.store = timeseries.NewStore(opts.ChunkSize, opts.StoreOptions...)
	}

	segs, err := listSeqFiles(dir, "wal-", ".seg")
	if err != nil {
		return nil, err
	}
	// A fresh segment sorts after every file already there, whether it is
	// replayed, covered by the snapshot or set aside by replayWAL; an empty
	// last segment is continued instead (replayWAL's reuse).
	maxSeq := startSeq
	if n := len(segs); n > 0 && segs[n-1].seq > maxSeq {
		maxSeq = segs[n-1].seq
	}
	began = time.Now()
	reuse, err := d.replayWAL(segs, startSeq)
	if err != nil {
		return nil, err
	}
	if d.recovery.replayedSegments > 0 {
		d.recovery.replay = time.Since(began)
		// The store is new, so its ref-append counter is replay's alone.
		d.recovery.replayedSamples = d.store.RefStats().RefSamples
	}

	seq := maxSeq + 1
	if reuse {
		seq = maxSeq
	}
	d.wal, err = openWAL(dir, seq, opts.SegmentSize, reuse)
	if err != nil {
		return nil, err
	}
	if st, err := os.Stat(filepath.Join(dir, snapshotName(startSeq))); err == nil {
		d.snapshotBytes.Store(st.Size())
	}

	fsyncEvery := opts.FsyncEvery
	if fsyncEvery <= 0 {
		fsyncEvery = 100 * time.Millisecond
	}
	if opts.Fsync == FsyncInterval {
		d.bg.Add(1)
		go d.runTicker(fsyncEvery, func() { _ = d.wal.sync() })
	}
	if opts.SnapshotInterval > 0 {
		d.bg.Add(1)
		go d.runTicker(opts.SnapshotInterval, func() { _ = d.Checkpoint() })
	}
	return d, nil
}

// replayWAL replays the segments from startSeq on into d.store through one
// Applier — opDefine bindings carry across segment boundaries exactly as
// the writer laid them down — truncating a torn tail and setting aside
// every segment after it. reuse reports that the last segment holds a
// header and nothing else: new writes can go on in it, so a restart that
// writes nothing leaves the log as it found it.
func (d *DurableStore) replayWAL(segs []seqFile, startSeq uint64) (reuse bool, err error) {
	app := NewApplier(d.store)
	defer app.Close()
	for i, sg := range segs {
		if sg.seq < startSeq {
			continue // fully covered by the snapshot; GC'd at next checkpoint
		}
		data, err := os.ReadFile(sg.path)
		if err != nil {
			return false, err
		}
		res, err := replaySegment(data, app.apply)
		if err != nil {
			return false, fmt.Errorf("%s: %w", filepath.Base(sg.path), err)
		}
		d.recovery.replayedSegments++
		d.recovery.replayedRecords += res.records
		if !res.torn {
			reuse = i == len(segs)-1 && string(data) == segMagic
			continue
		}
		d.recovery.truncatedTails++
		d.recovery.truncatedBytes += res.tornSize
		if err := os.Truncate(sg.path, res.offset); err != nil {
			return false, fmt.Errorf("persist: truncate torn tail of %s: %w", sg.path, err)
		}
		// Later segments were written after a record this log just lost;
		// replaying them would land data over the gap. They cannot stay
		// either: the next Open finds this segment clean and would replay
		// them, so recovery would not be idempotent. Set them aside under a
		// name no listing matches, for an operator to inspect.
		for _, lost := range segs[i+1:] {
			if err := os.Rename(lost.path, lost.path+".lost"); err != nil {
				return false, fmt.Errorf("persist: set aside %s after torn %s: %w", lost.path, sg.path, err)
			}
			d.recovery.lostSegments++
		}
		break
	}
	return reuse, nil
}

func (d *DurableStore) runTicker(every time.Duration, fn func()) {
	defer d.bg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			fn()
		}
	}
}

// Store exposes the underlying TSDB for queries. Do not mutate it
// directly — use the wrapper's Append/AppendRefs/Retain/RetainTier so the
// WAL sees every change.
func (d *DurableStore) Store() *timeseries.Store { return d.store }

// begin enters a mutating operation: it takes the checkpoint lock shared and
// the op lock, or fails with ErrStoreClosed holding neither. Every begin is
// paired with an end; fsync (ack) happens after end.
func (d *DurableStore) begin() error {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return fmt.Errorf("persist: %w", timeseries.ErrStoreClosed)
	}
	d.opMu.Lock()
	return nil
}

func (d *DurableStore) end() {
	d.opMu.Unlock()
	d.mu.RUnlock()
}

// logApply writes one WAL record and applies it under the op lock,
// returning the record's append sequence for the fsync policy.
func (d *DurableStore) logApply(payload []byte, apply func()) (uint64, error) {
	if err := d.begin(); err != nil {
		return 0, err
	}
	defer d.end()
	seq, _, err := d.wal.append(payload)
	if err == nil {
		apply()
	}
	return seq, err
}

// ack applies the fsync policy before an operation is acknowledged: under
// FsyncAlways one syncTo covers every record the call logged (seq is the
// last of them; 0 means nothing was logged).
func (d *DurableStore) ack(seq uint64) error {
	if seq != 0 && d.opts.Fsync == FsyncAlways {
		return d.wal.syncTo(seq)
	}
	return nil
}

// AppendBatch logs and ingests a keyed batch; semantics match
// timeseries.Store.AppendBatch (per-sample rejections do not abort the
// batch). It is an adapter over the one logged append: under a single hold
// of the op lock every entry is resolved — logging an opDefine for a series
// with no live WAL binding — and the batch goes down as one opAppendCols.
// Under FsyncAlways the call returns only after all of it is durable, with
// one fsync.
func (d *DurableStore) AppendBatch(entries []timeseries.BatchEntry) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	if err := d.begin(); err != nil {
		return 0, err
	}
	n, seq, err := d.appendBatchLocked(entries)
	d.end()
	if aerr := d.ack(seq); aerr != nil {
		return n, aerr
	}
	return n, err
}

// appendBatchLocked resolves then appends; the caller is between begin and
// end. seq is the last record logged (0 when none was).
func (d *DurableStore) appendBatchLocked(entries []timeseries.BatchEntry) (int, uint64, error) {
	var seq uint64
	d.refIn = d.refIn[:0]
	for i := range entries {
		e := &entries[i]
		sref, dseq, err := d.resolveLocked(e.ID, e.Kind, e.Unit)
		if err != nil {
			return 0, seq, err
		}
		seq = max(seq, dseq)
		d.refIn = append(d.refIn, timeseries.RefEntry{Ref: sref, T: e.T, V: e.V})
	}
	n, aseq, err := d.appendRefsLocked(d.refIn)
	return n, max(seq, aseq), err
}

// Append logs and ingests one sample.
func (d *DurableStore) Append(id metric.ID, kind metric.Kind, unit metric.Unit, t int64, v float64) error {
	_, err := d.AppendBatch([]timeseries.BatchEntry{{ID: id, Kind: kind, Unit: unit, T: t, V: v}})
	return err
}

// RefEpoch reports the underlying store's epoch (see
// timeseries.Store.RefEpoch).
func (d *DurableStore) RefEpoch() uint64 { return d.store.RefEpoch() }

// Resolve interns id in the underlying store and returns its ref, logging
// a WAL series definition the first time this wrapper binds the series (or
// the first time after a checkpoint cleared the WAL-ref table). Like every
// mutation, the definition is logged before the series is created, and
// under FsyncAlways the call returns only after it is durable — the
// created (possibly still empty) series is part of acknowledged state.
func (d *DurableStore) Resolve(id metric.ID, kind metric.Kind, unit metric.Unit) (timeseries.SeriesRef, error) {
	if err := d.begin(); err != nil {
		return 0, err
	}
	sref, seq, err := d.resolveLocked(id, kind, unit)
	d.end()
	if err != nil {
		return 0, err
	}
	return sref, d.ack(seq)
}

// resolveLocked hands out a ref for id, logging an opDefine when the
// series has no live WAL-ref binding. The caller is between begin and end;
// seq is 0 when nothing was logged.
func (d *DurableStore) resolveLocked(id metric.ID, kind metric.Kind, unit metric.Unit) (timeseries.SeriesRef, uint64, error) {
	if sref, ok := d.store.LookupRef(id); ok && d.walRef(sref.Slot()) != 0 {
		return sref, 0, nil
	}
	seq, err := d.defineLocked(id, kind, unit)
	if err != nil {
		return 0, 0, err
	}
	sref, err := d.store.Resolve(id, kind, unit)
	if err != nil {
		return 0, 0, err
	}
	d.bindWALRef(sref.Slot())
	return sref, seq, nil
}

// walRef returns slot's WAL ref, 0 when it has none.
func (d *DurableStore) walRef(slot uint32) uint64 {
	if int(slot) < len(d.walRefs) {
		return d.walRefs[slot]
	}
	return 0
}

// bindWALRef binds slot to the WAL ref defineLocked just logged.
func (d *DurableStore) bindWALRef(slot uint32) {
	for int(slot) >= len(d.walRefs) {
		d.walRefs = append(d.walRefs, 0)
	}
	d.walRefs[slot] = d.nextWALRef
}

// defineLocked logs an opDefine binding the next WAL ref to a series; on
// success the binding is d.nextWALRef.
func (d *DurableStore) defineLocked(id metric.ID, kind metric.Kind, unit metric.Unit) (uint64, error) {
	d.refEnc = encodeDefine(d.refEnc[:0], d.nextWALRef+1, id, kind, unit)
	seq, _, err := d.wal.append(d.refEnc)
	if err == nil {
		d.nextWALRef++
	}
	return seq, err
}

// AppendRefs logs and ingests ref-addressed samples; semantics match
// timeseries.Store.AppendRefs. Stale refs (minted by another store
// instance) are rejected before logging, so
// the WAL carries only samples whose addressing the store accepts and
// replay reproduces the same outcome; a valid ref with no live WAL
// binding (possible after a checkpoint cleared the table) gets its
// definition re-logged on the fly. The batch is logged as one opAppendCols
// record: a scrape's samples — consecutive WAL refs, one timestamp — cost
// their value column plus a few header bytes shared by the record.
func (d *DurableStore) AppendRefs(entries []timeseries.RefEntry) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	if err := d.begin(); err != nil {
		return 0, err
	}
	n, seq, err := d.appendRefsLocked(entries)
	d.end()
	if aerr := d.ack(seq); aerr != nil {
		return n, aerr
	}
	return n, err
}

// appendRefsLocked is the one logged append. The caller is between begin
// and end; seq is the last record logged (0 when none was).
func (d *DurableStore) appendRefsLocked(entries []timeseries.RefEntry) (n int, seq uint64, err error) {
	epoch := d.store.RefEpoch()
	var staleErr error
	d.refValid, d.refWAL = d.refValid[:0], d.refWAL[:0]
	for _, e := range entries {
		if e.Ref.Epoch() != epoch {
			staleErr = timeseries.ErrStaleRef
			continue
		}
		wr := d.walRef(e.Ref.Slot())
		if wr == 0 {
			id, kind, unit, live := d.store.RefInfo(e.Ref)
			if !live {
				staleErr = timeseries.ErrStaleRef
				continue
			}
			if seq, err = d.defineLocked(id, kind, unit); err != nil {
				return 0, seq, err
			}
			d.bindWALRef(e.Ref.Slot())
			wr = d.nextWALRef
		}
		d.refValid = append(d.refValid, e)
		d.refWAL = append(d.refWAL, wr)
	}
	if len(d.refValid) == 0 {
		return 0, seq, staleErr
	}
	if len(d.refValid) > maxRecordSamples {
		return 0, seq, fmt.Errorf("persist: %d samples exceed a record's %d", len(d.refValid), maxRecordSamples)
	}
	d.refEnc, d.refVals = encodeAppendCols(d.refEnc[:0], d.refVals[:0], d.refWAL, d.refValid)
	if seq, _, err = d.wal.append(d.refEnc); err != nil {
		return 0, seq, err
	}
	n, err = d.store.AppendRefs(d.refValid)
	if err == nil {
		err = staleErr
	}
	return n, seq, err
}

// Retain logs and applies retention; semantics match
// timeseries.Store.Retain plus a durability error.
func (d *DurableStore) Retain(cutoff int64) (int, error) {
	var n int
	seq, err := d.logApply(encodeRetain(nil, cutoff), func() {
		n = d.store.Retain(cutoff)
	})
	if err != nil {
		return 0, err
	}
	return n, d.ack(seq)
}

// RetainTier logs and applies per-tier rollup retention; semantics match
// timeseries.Store.RetainTier plus a durability error. The WAL record
// carries the tier step, so replay ages exactly the tier the live call did.
func (d *DurableStore) RetainTier(step, cutoff int64) (int, error) {
	var n int
	seq, err := d.logApply(encodeRetainTier(nil, step, cutoff), func() {
		n = d.store.RetainTier(step, cutoff)
	})
	if err != nil {
		return 0, err
	}
	return n, d.ack(seq)
}

// Checkpoint writes a snapshot of the current store and garbage-collects
// the WAL segments and older snapshots it covers. Mutations are blocked
// only while the store is dumped (a memcpy of the compressed chunks) and
// the WAL rotated; serialization and disk IO happen concurrently with new
// writes.
func (d *DurableStore) Checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return fmt.Errorf("persist: %w", timeseries.ErrStoreClosed)
	}
	dump := d.store.Dump()
	chunkSize := d.store.ChunkSize()
	cutSeq, err := d.wal.rotate()
	// The snapshot supersedes every opDefine logged so far; clear the
	// WAL-ref table (safe here: the exclusive d.mu excludes every op) so
	// post-cut segments re-define each series before first use and replay
	// never depends on a GC'd segment.
	clear(d.walRefs)
	d.nextWALRef = 0
	d.mu.Unlock()
	if err != nil {
		return err
	}

	size, err := writeSnapshot(d.dir, cutSeq, chunkSize, dump)
	if err != nil {
		return err
	}
	d.checkpoints.Add(1)
	d.snapshotBytes.Store(size)

	// The snapshot now covers every segment before cutSeq and supersedes
	// every older snapshot; drop both. Best effort — leftovers are ignored
	// (and re-collected) by the next Open/Checkpoint.
	if segs, err := listSeqFiles(d.dir, "wal-", ".seg"); err == nil {
		for _, sg := range segs {
			if sg.seq < cutSeq {
				_ = os.Remove(sg.path)
			}
		}
	}
	if snaps, err := listSeqFiles(d.dir, "snap-", ".snap"); err == nil {
		for _, sn := range snaps {
			if sn.seq < cutSeq {
				_ = os.Remove(sn.path)
			}
		}
	}
	syncDir(d.dir)
	return nil
}

// Close drains background work, writes a final checkpoint and closes the
// WAL. Further mutations fail with timeseries.ErrStoreClosed (wrapped);
// Store() remains readable. A store reopened after a clean Close recovers
// purely from the snapshot — zero replay.
func (d *DurableStore) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()

	close(d.stop)
	d.bg.Wait()

	err := d.Checkpoint()

	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()

	if cerr := d.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// Crash simulates a hard failure — what SIGKILL or a power cut leaves
// behind: background work stops and the WAL file handle closes with no
// checkpoint, no flush ordering and no final state write. The directory
// is left exactly as the crash instant had it, ready for Open to recover.
// It exists for the crash-test matrix and the chaos campaign harness;
// production shutdown is Close. After Crash the store is closed: further
// mutations fail with timeseries.ErrStoreClosed (wrapped) and Store()
// remains readable.
func (d *DurableStore) Crash() {
	close(d.stop)
	d.bg.Wait()
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.wal.mu.Lock()
	if d.wal.f != nil {
		d.wal.f.Close()
		d.wal.f = nil
	}
	d.wal.mu.Unlock()
}

// Stats returns the recovery and IO counters. Segment and snapshot sizes
// are read from the directory so they reflect checkpoint GC.
func (d *DurableStore) Stats() Stats {
	st := Stats{
		WALRecords:       d.wal.records.Load(),
		WALBytes:         d.wal.bytes.Load(),
		Fsyncs:           d.wal.fsyncs.Load(),
		CoalescedSyncs:   d.wal.coalesced.Load(),
		Checkpoints:      d.checkpoints.Load(),
		SnapshotBytes:    d.snapshotBytes.Load(),
		SnapshotLoaded:   d.recovery.snapshotLoaded,
		ReplayedSegments: d.recovery.replayedSegments,
		ReplayedRecords:  d.recovery.replayedRecords,
		TruncatedTails:   d.recovery.truncatedTails,
		TruncatedBytes:   d.recovery.truncatedBytes,
		LostSegments:     d.recovery.lostSegments,

		ReplayedSamples:      d.recovery.replayedSamples,
		ReplayDuration:       d.recovery.replay,
		SnapshotLoadDuration: d.recovery.snapshotLoad,
	}
	if segs, err := listSeqFiles(d.dir, "wal-", ".seg"); err == nil {
		st.Segments = len(segs)
		for _, sg := range segs {
			if fi, err := os.Stat(sg.path); err == nil {
				st.SegmentBytes += fi.Size()
			}
		}
	}
	return st
}
