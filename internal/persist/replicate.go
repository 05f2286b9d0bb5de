package persist

import (
	"errors"
	"fmt"
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
	var sent int64
	for idx < len(segs) && sent < maxBytes {
		data, err := os.ReadFile(segs[idx].path)
		if err != nil {
			return seq, off, records, err
		}
		if !knownMagic(data) {
			// Header not on disk yet (freshly rotated, not yet visible in
			// full): treat as empty and retry later.
			return seq, off, records, nil
		}
		n := int64(len(data))
		for sent < maxBytes {
			payload, next, ok := nextRecord(data, off)
			if !ok {
				break // the writing edge, or a torn tail: stop where replay would
			}
			if err := fn(payload); err != nil {
				return seq, off, records, err
			}
			off = next
			sent += int64(len(payload))
			records++
		}
		if off+recordHeaderLen > n || sent >= maxBytes {
			// Drained this file (or filled the budget). Only advance to the
			// next segment when one exists AND this one is fully consumed —
			// a live segment keeps growing, so the cursor parks at its edge.
			if sent < maxBytes && idx+1 < len(segs) && off >= n {
				idx++
				seq = segs[idx].seq
				off = int64(len(segMagic))
				continue
			}
			break
		}
		// Stopped mid-file at an incomplete/torn record with bytes left:
		// park here; if this is the live segment the record will complete.
		break
	}
	return seq, off, records, nil
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
