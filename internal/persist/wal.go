package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// segMagic heads every WAL segment this version writes. Segments headed
// segMagicV1 were written before samples were logged as opAppendCols: they
// still replay (their define and retain records are this version's, and a
// retired append record in one is refused), but none is written any more,
// so a build that reads only V1 segments refuses this version's whole
// rather than cutting it off at the first record it cannot decode.
const (
	segMagic   = "ODAWAL2\n"
	segMagicV1 = "ODAWAL1\n"
)

// knownMagic reports whether data opens with a segment magic replay reads.
func knownMagic(data []byte) bool {
	if len(data) < len(segMagic) {
		return false
	}
	m := string(data[:len(segMagic)])
	return m == segMagic || m == segMagicV1
}

// DefaultSegmentSize is the WAL rotation threshold.
const DefaultSegmentSize = 8 << 20

// FsyncPolicy picks the durability/latency trade for WAL appends.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs before an append is acknowledged. Concurrent
	// appenders group-commit: one fsync covers every record written before
	// it started, so the cost amortizes under load. Zero acknowledged
	// appends are lost on crash.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background cadence (Options.FsyncEvery);
	// a crash loses at most one interval of acknowledged appends.
	FsyncInterval
	// FsyncNever leaves flushing to the OS; a crash loses whatever the
	// kernel had not written back. Process death alone loses nothing.
	FsyncNever
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the flag spelling of a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("persist: unknown fsync policy %q (want always|interval|never)", s)
	}
}

// wal is the segmented write-ahead log. Appends are serialized by mu;
// fsyncs run under syncMu so that concurrent FsyncAlways appenders
// group-commit (the first one through fsyncs for everyone written so far).
type wal struct {
	dir     string
	segSize int64

	mu   sync.Mutex
	f    *os.File
	seq  uint64 // current segment sequence number
	size int64  // bytes written to the current segment
	buf  []byte // scratch for record framing, reused across appends
	// broken is set when a failed write could not be cut back out of the
	// segment: every later append returns it instead of landing behind the
	// fragment, where replay would stop at the tear and drop it.
	broken error

	writeSeq atomic.Uint64 // records written (monotonic append sequence)
	syncSeq  atomic.Uint64 // highest append sequence known durable
	syncMu   sync.Mutex    // group-commit leader lock

	records   atomic.Uint64
	bytes     atomic.Uint64
	fsyncs    atomic.Uint64
	coalesced atomic.Uint64 // sync requests satisfied by another caller's fsync
}

func segmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.seg", seq) }

// parseSeq extracts the sequence number from a "prefix-%08d.suffix" name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var seq uint64
	if _, err := fmt.Sscanf(mid, "%d", &seq); err != nil || mid == "" {
		return 0, false
	}
	return seq, true
}

// listSeqFiles returns the matching files in dir sorted by ascending
// sequence number.
type seqFile struct {
	seq  uint64
	path string
}

func listSeqFiles(dir, prefix, suffix string) ([]seqFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []seqFile
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			out = append(out, seqFile{seq: seq, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out, nil
}

// syncDir fsyncs a directory so entry creation/rename/removal survives a
// power cut. Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// openWAL opens the log for appending. With reuse it continues in segment
// seq, which holds its header and nothing else: Open hands over an empty
// last segment this way rather than leave it behind and start another.
// Otherwise it starts a fresh segment seq, which must exceed every existing
// segment's.
func openWAL(dir string, seq uint64, segSize int64, reuse bool) (*wal, error) {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	w := &wal{dir: dir, segSize: segSize, seq: seq - 1}
	if reuse {
		f, err := os.OpenFile(filepath.Join(dir, segmentName(seq)), os.O_WRONLY, 0)
		if err != nil {
			return nil, err
		}
		if _, err := f.Seek(int64(len(segMagic)), io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		w.f, w.seq, w.size = f, seq, int64(len(segMagic))
		return w, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.rotateLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

// rotateLocked syncs and closes the current segment and starts the next
// one. Caller holds w.mu.
func (w *wal) rotateLocked() error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.fsyncs.Add(1)
		// Everything appended so far lives in segments that are now fully
		// synced, so group commits against older records become no-ops.
		advance(&w.syncSeq, w.writeSeq.Load())
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	w.seq++
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(w.seq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.size = int64(len(segMagic))
	syncDir(w.dir)
	return nil
}

// advance moves an atomic watermark monotonically forward.
func advance(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// append frames and writes one record payload, returning the record's
// append sequence (for SyncTo) and the segment byte offset one past its
// end. The write is a single syscall; durability is the caller's policy.
// A write that fails may have put part of the record down (a short write):
// the segment is cut back to its last whole record before the error
// returns, so the next append lands where replay expects a record to start.
func (w *wal) append(payload []byte) (seq uint64, end int64, err error) {
	if len(payload) > MaxRecord {
		return 0, 0, fmt.Errorf("persist: record exceeds MaxRecord (%d bytes)", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return 0, 0, w.broken
	}
	if w.f == nil {
		return 0, 0, fmt.Errorf("persist: append: %w", os.ErrClosed)
	}
	rec := int64(recordHeaderLen + len(payload))
	if w.size+rec > w.segSize && w.size > int64(len(segMagic)) {
		if err := w.rotateLocked(); err != nil {
			return 0, 0, err
		}
	}
	w.buf = w.buf[:0]
	var hdr [recordHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	if _, err := w.f.Write(w.buf); err != nil {
		cerr := w.f.Truncate(w.size)
		if cerr == nil {
			_, cerr = w.f.Seek(w.size, io.SeekStart)
		}
		if cerr != nil {
			w.broken = fmt.Errorf("persist: wal write failed (%w) and its fragment could not be cut: %v", err, cerr)
		}
		return 0, 0, err
	}
	w.size += rec
	w.records.Add(1)
	w.bytes.Add(uint64(rec))
	return w.writeSeq.Add(1), w.size, nil
}

// syncTo makes every record up to append sequence seq durable. Group
// commit: if another caller's fsync already covered seq this returns
// immediately; otherwise the caller becomes the leader and one fsync
// acknowledges every record written before it started.
func (w *wal) syncTo(seq uint64) error {
	if w.syncSeq.Load() >= seq {
		w.coalesced.Add(1)
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncSeq.Load() >= seq {
		w.coalesced.Add(1)
		return nil
	}
	return w.syncCurrent()
}

// sync flushes the current segment (the FsyncInterval ticker path). An
// idle tick — nothing written since the last fsync — costs nothing.
func (w *wal) sync() error {
	if w.syncSeq.Load() >= w.writeSeq.Load() {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncSeq.Load() >= w.writeSeq.Load() {
		return nil
	}
	return w.syncCurrent()
}

// syncCurrent fsyncs the live segment file; records in rotated-away
// segments were synced at rotation. Caller holds syncMu.
func (w *wal) syncCurrent() error {
	w.mu.Lock()
	f := w.f
	upto := w.writeSeq.Load()
	w.mu.Unlock()
	if f == nil {
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	advance(&w.syncSeq, upto)
	return nil
}

// rotate forces a segment boundary and returns the new (empty) segment's
// sequence number; checkpoints call it so a snapshot covers exactly the
// segments before the returned one.
func (w *wal) rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.seq, nil
}

// close syncs and closes the live segment.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if err == nil {
		w.fsyncs.Add(1)
		advance(&w.syncSeq, w.writeSeq.Load())
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// replayResult summarizes one segment's replay.
type replayResult struct {
	records  uint64 // records decoded and applied
	offset   int64  // byte offset one past the last good record
	torn     bool   // segment ended in a torn/corrupt record
	tornSize int64  // bytes discarded by the torn tail
}

// replaySegment reads one segment file, invoking apply for every intact
// record in order. It stops at the first record whose length prefix,
// checksum or payload decode fails — the torn tail a crash mid-write
// leaves — and reports the clean prefix length so the caller can truncate.
// An empty or header-only file is a valid empty segment. Intact foreign
// data — a complete magic that is not ours, a checksummed record with a
// retired op code — is not a tear: replay stops there with
// ErrUnsupportedFormat and the result describes the prefix before it.
func replaySegment(data []byte, apply func(rec walRecord)) (replayResult, error) {
	res := replayResult{}
	if len(data) == 0 {
		return res, nil
	}
	if len(data) < len(segMagic) {
		// Header never made it to disk whole: nothing recoverable.
		res.torn = true
		res.tornSize = int64(len(data))
		return res, nil
	}
	if !knownMagic(data) {
		return res, fmt.Errorf("%w: segment magic %q, want %q", ErrUnsupportedFormat, data[:len(segMagic)], segMagic)
	}
	res.offset = int64(len(segMagic))
	var scratch []refSample // every record's samples decode into this
	for {
		payload, next, ok := nextRecord(data, res.offset)
		if !ok {
			break
		}
		rec, err := decodeRecord(payload, &scratch)
		if errors.Is(err, ErrUnsupportedFormat) {
			return res, fmt.Errorf("record at offset %d: %w", res.offset, err)
		}
		if err != nil {
			break // checksum matched but the payload is not a record
		}
		apply(rec)
		res.records++
		res.offset = next
	}
	if n := int64(len(data)); res.offset < n {
		res.torn = true
		res.tornSize = n - res.offset
	}
	return res, nil
}
