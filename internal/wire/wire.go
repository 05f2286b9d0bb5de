// Package wire defines the binary telemetry protocol collection agents use
// to push samples to an aggregation endpoint, plus a TCP server/client pair.
//
// Frame layout (big endian):
//
//	magic   uint16  0x0DA7
//	version uint8   1
//	type    uint8   frame type
//	length  uint32  payload byte count
//	crc32   uint32  IEEE checksum of the payload
//	payload [length]byte
//
// The v1 payload is a Batch: a set of records, each carrying a metric ID,
// kind, unit and a run of (delta-encoded) samples. Strings are
// length-prefixed with uvarints; integers use varints so the common case
// (regular cadence, small deltas) stays compact on the wire.
//
// Protocol v3 is the per-connection series dictionary (see dict.go): a
// FrameDict defines each series once, and FrameRefBatch frames then ship a
// batch as columns — delta-coded refs, counts and timestamps only where they
// say something, raw 8-byte values. Those two frame types travel as version
// 3, every other type as version 1, and ReadFrame refuses any other pairing:
// version 2 was a row-oriented ref batch that content cannot tell from the
// columnar one, so an old peer fails at its first frame with ErrBadVersion.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/binenc"
	"repro/internal/metric"
)

// Protocol constants.
const (
	Magic   uint16 = 0x0DA7
	Version uint8  = 1
	// Version3 marks the frames of the per-connection series dictionary
	// (FrameDict / FrameRefBatch). Version 2, their row-oriented
	// predecessor, is refused.
	Version3 uint8 = 3

	// FrameBatch carries a telemetry Batch.
	FrameBatch uint8 = 1
	// FramePing is a liveness probe: the server echoes the payload back in
	// a FramePong. It exists so a failure detector can distinguish a slow
	// peer (pong arrives late) from a dead one (pong never arrives): batch
	// sends are one-way, so their success says nothing about the far end.
	FramePing uint8 = 2
	// FramePong is the server's echo reply to a FramePing.
	FramePong uint8 = 3
	// FrameDict defines series in the connection's dictionary (v3).
	FrameDict uint8 = 4
	// FrameRefBatch carries a batch whose records address series by
	// dictionary ref (v3).
	FrameRefBatch uint8 = 5

	headerLen = 12
	// MaxPayload bounds a frame so a corrupt length cannot allocate
	// unbounded memory.
	MaxPayload = 16 << 20
)

// Errors returned by the decoder.
var (
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrTooLarge    = errors.New("wire: frame exceeds MaxPayload")
)

// Record is one series' worth of samples in a batch.
type Record struct {
	ID      metric.ID
	Kind    metric.Kind
	Unit    metric.Unit
	Samples []metric.Sample
}

// Batch is the unit of transmission: what one agent collected this round.
type Batch struct {
	Agent   string // agent identity, e.g. hostname
	Records []Record
}

// EncodeBatch serializes a batch payload (without frame header) into a
// fresh buffer. Hot paths that encode repeatedly should use AppendBatch
// with a reused buffer instead.
func EncodeBatch(b *Batch) []byte {
	return AppendBatch(make([]byte, 0, 64), b)
}

// AppendBatch serializes a batch payload onto dst and returns the extended
// slice (append semantics, like strconv.AppendInt). Reusing the returned
// buffer across calls amortizes the encode allocation to zero once the
// buffer has grown to the steady-state batch size.
func AppendBatch(dst []byte, b *Batch) []byte {
	dst = binenc.AppendString(dst, b.Agent)
	dst = binenc.AppendUvarint(dst, uint64(len(b.Records)))
	for i := range b.Records {
		r := &b.Records[i]
		dst = appendSeries(dst, r)
		dst = appendSamples(dst, r.Samples)
	}
	return dst
}

// appendSeries serializes a record's identity: ID, kind byte, unit. A v1
// record carries it inline; a dictionary definition carries it once.
func appendSeries(dst []byte, r *Record) []byte {
	dst = binenc.AppendID(dst, r.ID)
	dst = append(dst, byte(r.Kind))
	return binenc.AppendString(dst, string(r.Unit))
}

func readSeries(p *binenc.Reader) Record {
	return Record{ID: p.ID(), Kind: metric.Kind(p.Byte()), Unit: metric.Unit(p.Str())}
}

// appendSamples serializes a v1 record's sample run: a count, then per
// sample a varint timestamp (the first absolute, the rest deltas — a regular
// cadence costs one byte) and an 8-byte value.
func appendSamples(dst []byte, samples []metric.Sample) []byte {
	dst = binenc.AppendUvarint(dst, uint64(len(samples)))
	var prevT int64
	for _, sm := range samples {
		dst = binenc.AppendVarint(dst, sm.T-prevT)
		prevT = sm.T
		dst = binenc.AppendFloat(dst, sm.V)
	}
	return dst
}

// readSamples decodes a sample run (nil when empty).
func readSamples(p *binenc.Reader) []metric.Sample {
	n := p.Count(9) // a timestamp byte and an 8-byte value each
	if n == 0 {
		return nil
	}
	samples := make([]metric.Sample, n)
	var t int64
	for i := range samples {
		t += p.Varint()
		samples[i] = metric.Sample{T: t, V: p.Float()}
	}
	return samples
}

// DecodeBatch parses a batch payload.
func DecodeBatch(payload []byte) (*Batch, error) {
	p := binenc.NewReader(payload)
	b := &Batch{Agent: p.Str()}
	// A record is at least a name, a label count, a kind, a unit and a
	// sample count, one byte each.
	n := p.Count(5)
	b.Records = make([]Record, 0, n)
	for i := 0; i < n && p.Err() == nil; i++ {
		r := readSeries(&p)
		r.Samples = readSamples(&p)
		b.Records = append(b.Records, r)
	}
	if err := p.Err(); err != nil {
		return nil, fmt.Errorf("wire: batch: %w", err)
	}
	return b, nil
}

// putFrameHeader fills hdr for a payload of the given type. The caller has
// already checked the MaxPayload bound.
func putFrameHeader(hdr *[headerLen]byte, frameType uint8, payload []byte) {
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = versionFor(frameType)
	hdr[3] = frameType
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
}

// WriteFrame writes a framed payload to w. Dictionary frame types are
// stamped v3, everything else v1, so callers never pick a version by hand.
func WriteFrame(w io.Writer, frameType uint8, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrTooLarge
	}
	var hdr [headerLen]byte
	putFrameHeader(&hdr, frameType, payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		// Never issue a zero-length write: synchronous transports
		// (net.Pipe) rendezvous even empty writes, and a reader that
		// already consumed the header won't read again until the next
		// frame — the empty write would deadlock against the response.
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// versionFor maps a frame type to the one protocol version it travels under.
func versionFor(frameType uint8) uint8 {
	if frameType == FrameDict || frameType == FrameRefBatch {
		return Version3
	}
	return Version
}

// ReadFrame reads one framed payload from r, validating magic, version,
// size bound and checksum.
func ReadFrame(r io.Reader) (frameType uint8, payload []byte, err error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return 0, nil, ErrBadMagic
	}
	frameType = hdr[3]
	if hdr[2] != versionFor(frameType) {
		return 0, nil, ErrBadVersion
	}
	length := binary.BigEndian.Uint32(hdr[4:8])
	if length > MaxPayload {
		return 0, nil, ErrTooLarge
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[8:12]) {
		return 0, nil, ErrBadChecksum
	}
	return frameType, payload, nil
}

// BatchWriter wraps a stream with buffering for repeated batch sends. The
// encode buffer persists across Sends, so steady-state sends allocate
// nothing. Not safe for concurrent use; callers that share one (like
// Client) must serialize Sends themselves.
type BatchWriter struct {
	w   *bufio.Writer
	buf []byte          // reused encode scratch
	hdr [headerLen]byte // reused frame-header scratch (a stack header would
	// escape through the io.Writer interface and cost one alloc per send)
}

// NewBatchWriter returns a buffered batch writer over w.
func NewBatchWriter(w io.Writer) *BatchWriter {
	return &BatchWriter{w: bufio.NewWriter(w)}
}

// Send frames, writes and flushes one batch.
func (bw *BatchWriter) Send(b *Batch) error {
	bw.buf = AppendBatch(bw.buf[:0], b)
	if err := bw.writeFrame(FrameBatch, bw.buf); err != nil {
		return err
	}
	return bw.w.Flush()
}

// writeFrame buffers one framed payload without flushing, so a dictionary
// frame and its ref batch coalesce into a single flush (dict.go).
func (bw *BatchWriter) writeFrame(frameType uint8, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrTooLarge
	}
	putFrameHeader(&bw.hdr, frameType, payload)
	if _, err := bw.w.Write(bw.hdr[:]); err != nil {
		return err
	}
	_, err := bw.w.Write(payload)
	return err
}

func (bw *BatchWriter) flush() error { return bw.w.Flush() }
