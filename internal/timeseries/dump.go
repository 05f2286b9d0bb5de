package timeseries

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/metric"
)

// ChunkDump is one Gorilla-compressed chunk lifted out of a store: the raw
// bitstream payload plus the sample count needed to decode it. The bytes
// are exactly what the in-memory chunk holds, so dumping is a copy, not a
// re-encode.
type ChunkDump struct {
	Count int
	Data  []byte
}

// TierDump is one rollup tier's persisted state: the resolution, the
// open-window accumulator (folding must resume exactly where the dumped
// store stopped) and the sealed windows as ordered compressed chunks of
// encoded column records.
type TierDump struct {
	Step   int64
	Acc    RollupAcc
	Chunks []ChunkDump
}

// SeriesDump is one series' complete persisted state: identity, typing,
// the ordered compressed raw chunks, and its rollup tiers (nil when the
// store keeps none).
type SeriesDump struct {
	ID     metric.ID
	Kind   metric.Kind
	Unit   metric.Unit
	Chunks []ChunkDump
	Tiers  []TierDump
}

// Dump lifts every series out of the store in first-ingest order, copying
// the compressed chunk payloads. It is the snapshot surface durability
// layers serialize: deterministic ordering makes two dumps of identical
// stores byte-identical. Callers that need a consistent point-in-time image
// must ensure no mutations run concurrently (the persist layer holds its
// checkpoint lock across Dump).
func (s *Store) Dump() []SeriesDump {
	refs := s.refSnapshot()
	out := make([]SeriesDump, 0, len(refs))
	for _, ss := range refs {
		ss.mu.RLock()
		sd := SeriesDump{ID: ss.id, Kind: ss.kind, Unit: ss.unit, Chunks: dumpChunks(ss.chunks)}
		for _, ts := range ss.tiers {
			sd.Tiers = append(sd.Tiers, TierDump{Step: ts.step, Acc: ts.acc, Chunks: dumpChunks(ts.chunks)})
		}
		ss.mu.RUnlock()
		out = append(out, sd)
	}
	return out
}

// dumpChunks copies a chunk list's compressed payloads; the caller must
// hold the series read lock.
func dumpChunks(chunks []*Chunk) []ChunkDump {
	out := make([]ChunkDump, 0, len(chunks))
	for _, c := range chunks {
		if c.Count() == 0 {
			continue
		}
		out = append(out, ChunkDump{Count: c.Count(), Data: append([]byte(nil), c.w.bytes()...)})
	}
	return out
}

// RestoreStore rebuilds a store from a dump. Each chunk is decoded and
// re-encoded through the same Gorilla codec, and the re-encoded bytes are
// compared against the dump payload — a dump that decodes but would not
// reproduce itself (bit corruption the per-sample decode tolerates) fails
// restoration instead of silently diverging. The restored store is
// byte-identical to the dumped one: same chunk boundaries, same bitstreams,
// same append state for the partial tail chunk.
func RestoreStore(chunkSize int, dump []SeriesDump, opts ...Option) (*Store, error) {
	s := NewStore(chunkSize, opts...)
	for _, sd := range dump {
		key := sd.ID.Key()
		if s.lookup(key) != nil {
			return nil, fmt.Errorf("timeseries: restore: duplicate series %s", key)
		}
		ss := s.getOrCreate(key, sd.ID, sd.Kind, sd.Unit)
		for _, cd := range sd.Chunks {
			c, lastT, n, err := restoreChunk(key, cd, ss.last.T, ss.hasLast, nil)
			if err != nil {
				return nil, err
			}
			if c == nil {
				continue
			}
			ss.chunks = append(ss.chunks, c)
			ss.last = metric.Sample{T: lastT, V: n}
			ss.hasLast = true
		}
		// Tiers restore from the dump (its resolutions win over the store
		// option — recovered rollups must match the dumped store exactly);
		// resolutions the option adds on top start folding from scratch.
		restored := make(map[int64]bool, len(sd.Tiers))
		var tiers []*tierState
		for _, td := range sd.Tiers {
			ts := &tierState{step: td.Step, acc: td.Acc}
			var lastT int64
			hasLast := false
			for _, cd := range td.Chunks {
				c, lt, _, err := restoreChunk(key+fmt.Sprintf("[tier %d]", td.Step), cd, lastT, hasLast, &ts.pred)
				if err != nil {
					return nil, err
				}
				if c == nil {
					continue
				}
				ts.chunks = append(ts.chunks, c)
				lastT = lt
				hasLast = true
			}
			tiers = append(tiers, ts)
			restored[td.Step] = true
			s.countTierSeries(td.Step)
		}
		for _, ts := range ss.tiers { // the option's fresh tiers, minus duplicates
			if !restored[ts.step] {
				tiers = append(tiers, ts)
			} else {
				// Already counted for the restored tier; undo the fresh one.
				for i, st := range s.tierSteps {
					if st == ts.step {
						s.tierSeries[i].Add(^uint64(0))
					}
				}
			}
		}
		sort.Slice(tiers, func(i, j int) bool { return tiers[i].step < tiers[j].step })
		ss.tiers = tiers
	}
	return s, nil
}

// restoreChunk rebuilds one dumped chunk through the codec, verifying the
// re-encoded bytes match the dump and that timestamps continue the series'
// monotonic order. Returns the chunk (nil for an empty dump), its last
// timestamp and last value. A non-nil pred makes it a rollup tier's chunk:
// whole window groups, each record re-encoded against its column of pred,
// which is left as the chunk's closing predictor — the tier's, if this is its
// last chunk. A tier chunk in the interleaved layout snapshot v2 held reads
// here as other records, out of step with its own control bits, and fails one
// of these checks; what names a layout for certain is the snapshot magic, and
// the peers of a cluster run one build.
func restoreChunk(key string, cd ChunkDump, lastT int64, hasLast bool, pred *[rollupStride]xorState) (*Chunk, int64, float64, error) {
	if cd.Count == 0 {
		return nil, 0, 0, nil
	}
	c := NewChunk()
	// The re-encode must reproduce cd.Data, so its length is the buffer's;
	// the word-wide writer wants eight bytes of room past the last bit.
	c.w.buf = make([]byte, 0, len(cd.Data)+8)
	x := &c.x
	if pred != nil {
		if cd.Count%rollupStride != 0 {
			return nil, 0, 0, fmt.Errorf("timeseries: restore %s: %d records are not whole window groups", key, cd.Count)
		}
		*pred = [rollupStride]xorState{}
	}
	var it ChunkIter
	it.reset(cd.Data, cd.Count, pred != nil)
	for it.Next() {
		sm := it.At()
		if hasLast && sm.T <= lastT {
			return nil, 0, 0, fmt.Errorf("timeseries: restore %s: non-monotonic chunk sequence (%d <= %d)", key, sm.T, lastT)
		}
		if pred != nil {
			col := c.count % rollupStride
			if col == 0 && floorMod(sm.T, rollupStride) != 0 || col > 0 && sm.T != lastT+1 {
				return nil, 0, 0, fmt.Errorf("timeseries: restore %s: rollup stream misaligned at %d", key, sm.T)
			}
			x = &pred[col]
		}
		if err := c.append(sm.T, sm.V, x); err != nil {
			return nil, 0, 0, fmt.Errorf("timeseries: restore %s: %w", key, err)
		}
		lastT, hasLast = sm.T, true
	}
	if err := it.Err(); err != nil {
		return nil, 0, 0, fmt.Errorf("timeseries: restore %s: %w", key, err)
	}
	if c.Count() != cd.Count || !bytes.Equal(c.w.bytes(), cd.Data) {
		return nil, 0, 0, fmt.Errorf("timeseries: restore %s: chunk re-encode mismatch (%d samples, %d bytes vs %d)", key, cd.Count, c.Bytes(), len(cd.Data))
	}
	return c, lastT, x.lastV, nil
}
