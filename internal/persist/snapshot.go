package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/binenc"
	"repro/internal/metric"
	"repro/internal/timeseries"
)

// snapMagic heads every snapshot file this build writes. The digit is the
// format version: 5 is the payload laid out below, each chunk tagged with its
// value code and its layout (timeseries.ChunkDump.Decimal, .OneSample).
// snapMagicV4 heads the same payload whose tag is the value code alone, every
// tier chunk coding each window whole; snapMagicV3 heads it without tags,
// every chunk Gorilla-coded as well. Both still load, through the same
// decoder. Rollup tier chunks in all three are in the column-predicted layout
// (timeseries/rollup.go: window-index stamps, each record coded against its
// column of the previous window, time columns relative to the window start).
// Any other complete 8-byte magic — the retired "ODASNP1\n" (no tiers) and
// "ODASNP2\n" (interleaved tier chunks) included — is ErrUnsupportedFormat: a
// v2 file's tier chunks would not survive RestoreStore's checks anyway (read
// in the current layout, their records fall out of window alignment or
// order), and failing there would read as damage and fall back past it to a
// WAL that no longer reaches back. A build from before v5 refuses a v5 file
// the same way, at its magic.
const (
	snapMagic   = "ODASNP5\n"
	snapMagicV4 = "ODASNP4\n"
	snapMagicV3 = "ODASNP3\n"
)

// snapVersion is the format snapMagic names, the one EncodeDump writes.
const snapVersion = 5

// A v5 chunk's tag: its value code, and its layout.
const (
	tagDecimal   = 1 << 0
	tagOneSample = 1 << 1
)

func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%08d.snap", seq) }

// encodeSnapshot serializes a store dump. Layout after the magic:
//
//	chunkSize  uvarint
//	numSeries  uvarint
//	per series: name, labelCount, (key, value)*, kind byte, unit,
//	            chunkCount, per chunk: sampleCount uvarint, tag byte
//	            (tagDecimal: decimal-coded, else Gorilla; tagOneSample: a
//	            tier chunk's one-sample windows go down as one value; in v4
//	            the byte is 1 for decimal and 0 for Gorilla; absent in v3),
//	            byteLen uvarint, the chunk's bitstream,
//	            tierCount, per tier: step varint, accumulator, chunk list
//	            (tier chunks in the rollup group layout)
//
// followed by a CRC32C of everything after the magic. The chunk payloads
// are the store's own compressed bitstreams, so a snapshot costs a copy,
// not a re-encode, and is about the size of the resident compressed data.
func encodeSnapshot(chunkSize int, dump []timeseries.SeriesDump) []byte {
	buf := make([]byte, 0, 1024)
	buf = binenc.AppendUvarint(buf, uint64(chunkSize))
	buf = binenc.AppendUvarint(buf, uint64(len(dump)))
	for _, sd := range dump {
		buf = binenc.AppendID(buf, sd.ID)
		buf = append(buf, byte(sd.Kind))
		buf = binenc.AppendString(buf, string(sd.Unit))
		buf = appendChunks(buf, sd.Chunks)
		buf = binenc.AppendUvarint(buf, uint64(len(sd.Tiers)))
		for _, td := range sd.Tiers {
			buf = binenc.AppendVarint(buf, td.Step)
			buf = appendAcc(buf, td.Acc)
			buf = appendChunks(buf, td.Chunks)
		}
	}
	return buf
}

func appendChunks(buf []byte, chunks []timeseries.ChunkDump) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(chunks)))
	for _, cd := range chunks {
		var tag byte
		if cd.Decimal {
			tag |= tagDecimal
		}
		if cd.OneSample {
			tag |= tagOneSample
		}
		buf = binenc.AppendUvarint(buf, uint64(cd.Count))
		buf = append(buf, tag)
		buf = binenc.AppendBytes(buf, cd.Data)
	}
	return buf
}

// appendAcc serializes a tier's open-window accumulator; recovery must
// resume folding exactly where the dumped store stopped.
func appendAcc(buf []byte, a timeseries.RollupAcc) []byte {
	buf = binenc.AppendBool(buf, a.Active)
	buf = binenc.AppendVarint(buf, a.Start)
	buf = binenc.AppendVarint(buf, a.Count)
	buf = binenc.AppendFloat(buf, a.Sum)
	buf = binenc.AppendFloat(buf, a.Min)
	buf = binenc.AppendFloat(buf, a.Max)
	buf = binenc.AppendVarint(buf, a.FirstT)
	buf = binenc.AppendFloat(buf, a.FirstV)
	buf = binenc.AppendVarint(buf, a.LastT)
	return binenc.AppendFloat(buf, a.LastV)
}

// decodeSnapshot parses a snapshot payload (without magic or trailer) of the
// given format version: 3, 4 or snapVersion.
func decodeSnapshot(payload []byte, version int) (chunkSize int, dump []timeseries.SeriesDump, err error) {
	p := binenc.NewReader(payload)
	chunkSize = int(p.Uvarint())
	// A series is at least a name, label count, kind, unit, chunk count and
	// tier count, one byte each.
	nser := p.Count(6)
	dump = make([]timeseries.SeriesDump, 0, nser)
	var tags byte
	for i := 0; i < nser && p.Err() == nil; i++ {
		sd := timeseries.SeriesDump{ID: p.ID(), Kind: metric.Kind(p.Byte()), Unit: metric.Unit(p.Str())}
		sd.Chunks = readChunks(&p, version, &tags)
		// A tier is at least a step, a 45-byte accumulator and a chunk count.
		ntier := p.Count(47)
		for t := 0; t < ntier && p.Err() == nil; t++ {
			sd.Tiers = append(sd.Tiers, timeseries.TierDump{Step: p.Varint(), Acc: readAcc(&p), Chunks: readChunks(&p, version, &tags)})
		}
		dump = append(dump, sd)
	}
	if err := p.Done(); err != nil {
		return 0, nil, fmt.Errorf("persist: snapshot payload: %w", err)
	}
	if tags&^(tagDecimal|tagOneSample) != 0 {
		return 0, nil, fmt.Errorf("persist: snapshot payload: chunk tag bits %#x unknown", tags)
	}
	return chunkSize, dump, nil
}

// readChunks decodes one chunk list as written by appendChunks, or by a
// build of an older format version, and ORs every chunk's tag into tags.
// Each chunk's Data is a slice of the payload, not a copy: RestoreStore
// copies every chunk it keeps, so the payload is garbage once it returns.
func readChunks(p *binenc.Reader, version int, tags *byte) []timeseries.ChunkDump {
	n := p.Count(2) // a sample count and a byte length each
	out := make([]timeseries.ChunkDump, 0, n)
	for i := 0; i < n && p.Err() == nil; i++ {
		cd := timeseries.ChunkDump{Count: int(p.Uvarint())}
		if version > 3 { // v4's byte, 1 for decimal, is v5's tag without the layout
			tag := p.Byte()
			cd.Decimal, cd.OneSample = tag&tagDecimal != 0, tag&tagOneSample != 0
			*tags |= tag
		}
		cd.Data = p.View()
		out = append(out, cd)
	}
	return out
}

// readAcc decodes a rollup accumulator as written by appendAcc.
func readAcc(p *binenc.Reader) timeseries.RollupAcc {
	return timeseries.RollupAcc{
		Active: p.Bool(),
		Start:  p.Varint(),
		Count:  p.Varint(),
		Sum:    p.Float(),
		Min:    p.Float(),
		Max:    p.Float(),
		FirstT: p.Varint(),
		FirstV: p.Float(),
		LastT:  p.Varint(),
		LastV:  p.Float(),
	}
}

// writeSnapshot durably writes a snapshot covering WAL segments < seq:
// temp file, fsync, atomic rename to its final name, directory fsync. A
// crash at any point leaves either the previous snapshot or the complete
// new one — never a half-written file under the live name.
func writeSnapshot(dir string, seq uint64, chunkSize int, dump []timeseries.SeriesDump) (int64, error) {
	payload := encodeSnapshot(chunkSize, dump)
	tmp := filepath.Join(dir, snapshotName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc32.Checksum(payload, castagnoli))
	if _, err = f.WriteString(snapMagic); err == nil {
		if _, err = f.Write(payload); err == nil {
			_, err = f.Write(trailer[:])
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	final := filepath.Join(dir, snapshotName(seq))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(dir)
	return int64(len(snapMagic) + len(payload) + 4), nil
}

// loadSnapshot reads and validates one snapshot file, rebuilding the store
// it captured. A complete foreign magic is ErrUnsupportedFormat, which Open
// refuses to step around; any other inconsistency — short file, checksum
// mismatch, decode failure, a chunk that fails RestoreStore's checks (out of
// order, misaligned, bits past its records, or a last chunk that does not
// re-encode to its own bytes) — is damage, and Open falls back to an older
// snapshot. The checksum is what catches a flipped bit that still decodes:
// RestoreStore adopts a sealed chunk's bytes without re-encoding them, and
// the re-encode of a last chunk rebuilds whatever its bits decode to.
func loadSnapshot(path string, storeOpts []timeseries.Option) (*timeseries.Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	version := snapVersion
	if len(data) >= len(snapMagic) {
		switch magic := string(data[:len(snapMagic)]); magic {
		case snapMagic:
		case snapMagicV4:
			version = 4
		case snapMagicV3:
			version = 3
		default:
			return nil, fmt.Errorf("%w: %s has magic %q, want %q", ErrUnsupportedFormat, name, magic, snapMagic)
		}
	}
	if len(data) < len(snapMagic)+4 {
		return nil, fmt.Errorf("persist: %s: short snapshot", name)
	}
	payload := data[len(snapMagic) : len(data)-4]
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, fmt.Errorf("persist: %s: snapshot checksum mismatch", name)
	}
	chunkSize, dump, err := decodeSnapshot(payload, version)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	store, err := timeseries.RestoreStore(chunkSize, dump, storeOpts...)
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", name, err)
	}
	return store, nil
}
