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

// snapMagic heads every snapshot file. The digit is the format version: 3
// is the payload laid out below with rollup tier chunks in the column-predicted
// layout (timeseries/rollup.go: window-index stamps, each record XOR-ed
// against its column of the previous window, time columns relative to the
// window start). Any other complete 8-byte magic — the retired "ODASNP1\n"
// (no tiers) and "ODASNP2\n" (same payload, interleaved tier chunks) included
// — is ErrUnsupportedFormat: a v2 file's tier chunks would not survive
// RestoreStore's re-encode check anyway, and failing there would read as
// damage and fall back past it to a WAL that no longer reaches back.
const snapMagic = "ODASNP3\n"

func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%08d.snap", seq) }

// encodeSnapshot serializes a store dump. Layout after the magic:
//
//	chunkSize  uvarint
//	numSeries  uvarint
//	per series: name, labelCount, (key, value)*, kind byte, unit,
//	            chunkCount, per chunk: sampleCount uvarint, byteLen uvarint,
//	            raw Gorilla bitstream,
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
		buf = binenc.AppendUvarint(buf, uint64(cd.Count))
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

// decodeSnapshot parses a snapshot payload (without magic or trailer).
func decodeSnapshot(payload []byte) (chunkSize int, dump []timeseries.SeriesDump, err error) {
	p := binenc.NewReader(payload)
	chunkSize = int(p.Uvarint())
	// A series is at least a name, label count, kind, unit, chunk count and
	// tier count, one byte each.
	nser := p.Count(6)
	dump = make([]timeseries.SeriesDump, 0, nser)
	for i := 0; i < nser && p.Err() == nil; i++ {
		sd := timeseries.SeriesDump{ID: p.ID(), Kind: metric.Kind(p.Byte()), Unit: metric.Unit(p.Str())}
		sd.Chunks = readChunks(&p)
		// A tier is at least a step, a 45-byte accumulator and a chunk count.
		ntier := p.Count(47)
		for t := 0; t < ntier && p.Err() == nil; t++ {
			sd.Tiers = append(sd.Tiers, timeseries.TierDump{Step: p.Varint(), Acc: readAcc(&p), Chunks: readChunks(&p)})
		}
		dump = append(dump, sd)
	}
	if err := p.Done(); err != nil {
		return 0, nil, fmt.Errorf("persist: snapshot payload: %w", err)
	}
	return chunkSize, dump, nil
}

// readChunks decodes one chunk list as written by appendChunks.
func readChunks(p *binenc.Reader) []timeseries.ChunkDump {
	n := p.Count(2) // a sample count and a byte length each
	out := make([]timeseries.ChunkDump, 0, n)
	for i := 0; i < n && p.Err() == nil; i++ {
		out = append(out, timeseries.ChunkDump{Count: int(p.Uvarint()), Data: p.Bytes()})
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
// mismatch, decode failure, chunk re-encode divergence — is damage, and Open
// falls back to an older snapshot.
func loadSnapshot(path string, storeOpts []timeseries.Option) (*timeseries.Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	if len(data) >= len(snapMagic) && string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: %s has magic %q, want %q", ErrUnsupportedFormat, name, data[:len(snapMagic)], snapMagic)
	}
	if len(data) < len(snapMagic)+4 {
		return nil, fmt.Errorf("persist: %s: short snapshot", name)
	}
	payload := data[len(snapMagic) : len(data)-4]
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, fmt.Errorf("persist: %s: snapshot checksum mismatch", name)
	}
	chunkSize, dump, err := decodeSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	store, err := timeseries.RestoreStore(chunkSize, dump, storeOpts...)
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", name, err)
	}
	return store, nil
}
