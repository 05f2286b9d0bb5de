package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/timeseries"
)

// This file is the persistence half of WAL-shipping replication: the CRC32C
// record log a DurableStore already writes is a complete, ordered journal of
// every mutation, so a follower that replays the same payloads in the same
// order rebuilds the same store. The cluster layer streams records with
// SegmentReader, bootstraps (or re-bootstraps after falling behind a
// checkpoint GC) from ReplicationSnapshot, and applies shipped payloads to
// its replica store with an Applier, the one Open replays through.

// ErrSegmentGone reports that the WAL position a follower asked for was
// garbage-collected by a checkpoint: the records are gone, and the follower
// must restart from a snapshot.
var ErrSegmentGone = errors.New("persist: wal position covered by checkpoint, snapshot required")

// SegmentReader streams raw WAL record payloads out of a durable store's
// data directory. It reads the files directly — including the live segment,
// whose clean prefix is always well-formed because records are appended
// with a single write — and stops at the first incomplete or corrupt
// record, exactly where replay would.
type SegmentReader struct {
	dir string
}

// NewSegmentReader returns a reader over the WAL segments in dir.
func NewSegmentReader(dir string) *SegmentReader { return &SegmentReader{dir: dir} }

// ReadFrom streams record payloads beginning at WAL position (seq, off) to
// fn, in log order, until it has delivered about maxBytes of payload, the
// log is exhausted, or fn returns an error. seq is a segment sequence
// number and off a byte offset into that segment (off below the segment
// header is rounded up to the first record). seq 0 means "the oldest
// segment available".
//
// It returns the position one past the last delivered record — the cursor
// to resume from — and how many records were delivered. A position older
// than the oldest surviving segment returns ErrSegmentGone (a checkpoint
// collected it; the follower needs a snapshot). Reaching the writing edge
// of the live segment is not an error: the caller polls again from the
// returned position.
//
// A pull reads only the bytes it delivers: from the cursor, about maxBytes
// plus the record that crosses it, never past a segment's size, never the
// rest of the file. A payload handed to fn is a view of a buffer the call
// allocated and never overwrites, so it stays valid after fn returns.
func (r *SegmentReader) ReadFrom(seq uint64, off int64, maxBytes int64, fn func(payload []byte) error) (nextSeq uint64, nextOff int64, records int, err error) {
	segs, err := listSeqFiles(r.dir, "wal-", ".seg")
	if err != nil {
		return seq, off, 0, err
	}
	if len(segs) == 0 {
		return seq, off, 0, nil
	}
	if seq == 0 {
		seq = segs[0].seq
		off = 0
	}
	if seq < segs[0].seq {
		return seq, off, 0, ErrSegmentGone
	}
	idx := -1
	for i, sg := range segs {
		if sg.seq == seq {
			idx = i
			break
		}
	}
	if idx == -1 {
		if seq > segs[len(segs)-1].seq {
			return seq, off, 0, nil // position beyond the live segment: nothing yet
		}
		return seq, off, 0, ErrSegmentGone
	}
	if off < int64(len(segMagic)) {
		off = int64(len(segMagic))
	}
	p := segmentPull{off: off, maxBytes: maxBytes, fn: fn}
	for idx < len(segs) && p.sent < maxBytes {
		size, err := p.drain(segs[idx].path)
		if err != nil {
			return seq, p.off, p.records, err
		}
		if size < 0 {
			// Header not on disk yet (freshly rotated, not yet visible in
			// full): treat as empty and retry later.
			return seq, p.off, p.records, nil
		}
		// Only advance to the next segment when one exists AND this one is
		// fully consumed — a live segment keeps growing, so the cursor parks
		// at its edge, as it does at an incomplete or torn record with bytes
		// left (if this is the live segment the record will complete).
		if p.sent < maxBytes && idx+1 < len(segs) && p.off >= size {
			idx++
			seq = segs[idx].seq
			p.off = int64(len(segMagic))
			continue
		}
		break
	}
	return seq, p.off, p.records, nil
}

// segmentPull is one ReadFrom call's progress: the cursor's offset in the
// segment being read, the payload bytes and records delivered so far.
type segmentPull struct {
	off      int64
	sent     int64
	records  int
	maxBytes int64
	fn       func(payload []byte) error
}

// drain delivers one segment's intact records from p.off until the budget
// is spent, stopping at the first incomplete or corrupt record, exactly
// where replay would. It returns the segment's size, or -1 when its header
// is not on disk yet.
func (p *segmentPull) drain(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	w := segmentWindow{f: f, size: fi.Size()}
	var magic [len(segMagic)]byte
	if w.size < int64(len(magic)) {
		return -1, nil
	}
	if _, err := f.ReadAt(magic[:], 0); err != nil && err != io.EOF {
		return 0, err
	} else if err != nil || !knownMagic(magic[:]) {
		return -1, nil
	}
	for p.sent < p.maxBytes {
		payload, next, ok, err := w.record(p.off, p.maxBytes-p.sent)
		if err != nil {
			return 0, err
		}
		if !ok {
			break // the writing edge, or a torn tail
		}
		if err := p.fn(payload); err != nil {
			return 0, err
		}
		p.off = next
		p.sent += int64(len(payload))
		p.records++
	}
	return w.size, nil
}

// segmentWindow holds the bytes of one segment that a pull has read: buf
// is the file's bytes from offset base on.
type segmentWindow struct {
	f    *os.File
	size int64 // the file's size when the pull opened it
	base int64
	buf  []byte
}

// record returns the intact record at off and the offset one past it; ok is
// false where nextRecord over the whole file would find none. budget
// is the payload the pull may still deliver: a read that fetches the record
// fetches that much beyond it too (never past the file's size), so the
// records that follow in the budget need no read of their own.
func (w *segmentWindow) record(off, budget int64) (payload []byte, next int64, ok bool, err error) {
	if off > w.size-recordHeaderLen {
		return nil, off, false, nil
	}
	if ok, err := w.cover(off, off+recordHeaderLen, budget); !ok || err != nil {
		return nil, off, false, err
	}
	length := int64(binary.BigEndian.Uint32(w.buf[off-w.base:]))
	if length > MaxRecord || length > w.size-off-recordHeaderLen {
		return nil, off, false, nil
	}
	if ok, err := w.cover(off, off+recordHeaderLen+length, budget); !ok || err != nil {
		return nil, off, false, err
	}
	payload, next, ok = nextRecord(w.buf, off-w.base)
	return payload, w.base + next, ok, nil
}

// cover makes buf hold the file's bytes [off, end), reading from off to
// the later of end and off plus budget and one record header, capped at the
// file's size. A window that moves is a fresh buffer, starting at off, that
// keeps only the bytes past off it already held: the records handed out
// before keep their bytes. ok is false when the file turns out shorter than
// its size said (a failed write was cut back), with size lowered to match.
func (w *segmentWindow) cover(off, end, budget int64) (ok bool, err error) {
	if off >= w.base && end <= w.base+int64(len(w.buf)) {
		return true, nil
	}
	hi := w.size
	if budget < w.size-off-recordHeaderLen {
		hi = max(end, off+budget+recordHeaderLen)
	}
	buf := make([]byte, hi-off)
	kept := 0
	if held := w.base + int64(len(w.buf)); off >= w.base && off < held {
		kept = copy(buf, w.buf[off-w.base:])
	}
	n, err := w.f.ReadAt(buf[kept:], off+int64(kept))
	if err != nil && err != io.EOF {
		return false, err
	}
	w.base, w.buf = off, buf[:kept+n]
	if kept+n < len(buf) {
		w.size = off + int64(kept+n)
	}
	return end <= w.base+int64(len(w.buf)), nil
}

// TailBytes reports roughly how many WAL bytes lie at or after position
// (seq, off): the replication-lag gauge a leader computes for a follower's
// cursor. It is approximate at segment boundaries (file sizes include
// headers) but exact enough to distinguish "caught up" (0) from "behind".
func (r *SegmentReader) TailBytes(seq uint64, off int64) (int64, error) {
	segs, err := listSeqFiles(r.dir, "wal-", ".seg")
	if err != nil {
		return 0, err
	}
	var total int64
	for _, sg := range segs {
		fi, err := os.Stat(sg.path)
		if err != nil {
			continue
		}
		switch {
		case sg.seq > seq:
			sz := fi.Size() - int64(len(segMagic))
			if sz > 0 {
				total += sz
			}
		case sg.seq == seq:
			at := off
			if at < int64(len(segMagic)) {
				at = int64(len(segMagic))
			}
			if fi.Size() > at {
				total += fi.Size() - at
			}
		}
	}
	return total, nil
}

// Dir returns the durable store's data directory, where a SegmentReader
// can stream its WAL from.
func (d *DurableStore) Dir() string { return d.dir }

// ReplicationSnapshot captures a point-in-time dump of the store together
// with the WAL position the dump corresponds to: replaying the records at
// or after (seq, off) on top of the dump reproduces the leader exactly.
// It holds the store's checkpoint lock, so no mutation lands between the
// dump and the position read.
func (d *DurableStore) ReplicationSnapshot() (chunkSize int, dump []timeseries.SeriesDump, seq uint64, off int64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, nil, 0, 0, fmt.Errorf("persist: %w", timeseries.ErrStoreClosed)
	}
	dump = d.store.Dump()
	chunkSize = d.store.ChunkSize()
	d.wal.mu.Lock()
	seq, off = d.wal.seq, d.wal.size
	d.wal.mu.Unlock()
	// A follower bootstrapping from this dump only sees records after
	// (seq, off), so opDefine bindings logged before the cut would be
	// invisible to it. Clear the WAL-ref table (the exclusive d.mu excludes
	// every op): series re-define on next use, making the post-cut record
	// stream self-contained for any number of followers.
	clear(d.walRefs)
	d.nextWALRef = 0
	return chunkSize, dump, seq, off, nil
}

// EncodeDump serializes a store dump into the snapshot payload format —
// the transfer encoding a replication snapshot ships over the wire. The
// payload carries no version of its own: the peers of a cluster run one
// build.
func EncodeDump(chunkSize int, dump []timeseries.SeriesDump) []byte {
	return encodeSnapshot(chunkSize, dump)
}

// DecodeDump parses a payload produced by EncodeDump.
func DecodeDump(payload []byte) (int, []timeseries.SeriesDump, error) {
	return decodeSnapshot(payload, snapVersion)
}
