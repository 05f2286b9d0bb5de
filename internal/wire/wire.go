// Package wire defines the binary telemetry protocol collection agents use
// to push samples to an aggregation endpoint, plus a TCP server/client pair.
//
// Frame layout (big endian):
//
//	magic   uint16  0x0DA7
//	version uint8   3 for dictionary frames, 1 for everything else
//	type    uint8   frame type
//	length  uint32  payload byte count
//	crc32   uint32  IEEE checksum of the payload
//	payload [length]byte
//
// Batches travel as protocol v3, the per-connection series dictionary (see
// dict.go): a FrameDict defines each series once, and FrameRefBatch frames
// then ship a batch as columns — delta-coded refs, counts and timestamps only
// where they say something, raw 8-byte values. Strings are length-prefixed
// with uvarints; integers use varints. Those two frame types travel as
// version 3, every other type as version 1, and ReadFrame refuses any other
// pairing: version 2 was a row-oriented ref batch that content cannot tell
// from the columnar one, so an old peer fails at its first frame with
// ErrBadVersion. The v1 batch frame, which re-sent every series name and
// label set in every batch, is refused the same way with ErrBatchFrameRetired.
package wire

import (
	"encoding/binary"
	"errors"
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

	// FrameBatch is the retired v1 batch frame's type number, reserved so
	// nothing reuses it: ReadFrame refuses it with ErrBatchFrameRetired. The
	// name exists only for bench/trace, which still switches on it.
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
	// ErrBatchFrameRetired refuses a v1 FrameBatch: a sender must define its
	// series with FrameDict and ship FrameRefBatch.
	ErrBatchFrameRetired = errors.New("wire: v1 batch frame (type 1) is retired; send dictionary ref batches")
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

// appendSeries serializes a record's identity: ID, kind byte, unit. A
// dictionary definition carries it once per connection.
func appendSeries(dst []byte, r *Record) []byte {
	dst = binenc.AppendID(dst, r.ID)
	dst = append(dst, byte(r.Kind))
	return binenc.AppendString(dst, string(r.Unit))
}

func readSeries(p *binenc.Reader) Record {
	return Record{ID: p.ID(), Kind: metric.Kind(p.Byte()), Unit: metric.Unit(p.Str())}
}

// DecodeBatch refuses every payload with ErrBatchFrameRetired. It exists
// only for bench/trace, which still routes FrameBatch frames to it.
func DecodeBatch([]byte) (*Batch, error) { return nil, ErrBatchFrameRetired }

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
// size bound and checksum. A v1 FrameBatch is refused at its header, so
// every reader of the protocol refuses it the same way.
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
	if frameType == FrameBatch {
		return 0, nil, ErrBatchFrameRetired
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
