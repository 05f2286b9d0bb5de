package timeseries

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/metric"
)

// ChunkDump is one compressed chunk lifted out of a store: the bitstream
// payload plus what decoding it needs, the sample count, the value code
// (Decimal set, or Gorilla) and, for a tier chunk, the layout (OneSample
// set: a window of count 1 codes its count, sum and first offset alone; or
// every window its whole group, as in snapshots before v5). The bytes are
// exactly what the in-memory chunk holds, so dumping is a copy, not a
// re-encode, and so is restoring a sealed chunk (RestoreStore): only the
// last chunk of a series or tier is re-encoded, to rebuild its coder state.
type ChunkDump struct {
	Count     int
	Decimal   bool
	OneSample bool
	Data      []byte
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
		out = append(out, ChunkDump{Count: c.Count(), Decimal: c.dec, OneSample: c.oneSample, Data: append([]byte(nil), c.w.bytes()...)})
	}
	return out
}

// RestoreStore rebuilds a store from a dump. Every chunk is decoded, a block
// at a time, and checked: its record count, timestamps that continue the
// series' (or the tier's) strictly increasing order, and a tier chunk's whole
// window groups, each aligned to its window. A sealed chunk — every raw chunk
// but a series' last, every tier chunk but a tier's last — is adopted as it
// is: its dump bytes, in one copy of their exact size, so the caller's
// snapshot or payload buffer can be freed. The last chunk of each list is
// re-encoded through the same codec, which rebuilds the coder state the next
// append continues from, and the re-encoded bytes are compared against the
// dump payload. The restored store is byte-identical to the dumped one: same
// chunk boundaries, same bitstreams, same append state for the partial tail
// chunk.
func RestoreStore(chunkSize int, dump []SeriesDump, opts ...Option) (*Store, error) {
	s := NewStore(chunkSize, opts...)
	for _, sd := range dump {
		key := sd.ID.Key()
		if s.lookup(key) != nil {
			return nil, fmt.Errorf("timeseries: restore: duplicate series %s", key)
		}
		ss := s.getOrCreate(key, sd.ID, sd.Kind, sd.Unit)
		open := lastHolding(sd.Chunks)
		for i, cd := range sd.Chunks {
			var x [1]colState
			c, lastT, n, err := restoreChunk(cd, ss.last.T, ss.hasLast, i == open, &ss.delta, x[:], &ss.cost)
			if err != nil {
				return nil, fmt.Errorf("timeseries: restore %s: %w", key, err)
			}
			if c == nil {
				continue
			}
			ss.chunks = append(ss.chunks, c)
			ss.x = x[0]
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
			open := lastHolding(td.Chunks)
			for i, cd := range td.Chunks {
				c, lt, _, err := restoreChunk(cd, lastT, hasLast, i == open, &ts.delta, ts.pred[:], nil)
				if err != nil {
					return nil, fmt.Errorf("timeseries: restore %s[tier %d]: %w", key, td.Step, err)
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

// lastHolding returns the index of the last chunk of a dumped list that holds
// records — the list's open chunk, the one appends continue — or -1.
func lastHolding(chunks []ChunkDump) int {
	for i := len(chunks) - 1; i >= 0; i-- {
		if chunks[i].Count > 0 {
			return i
		}
	}
	return -1
}

// restoreChunk rebuilds one dumped chunk, decoding it a block at a time and
// checking that its timestamps continue the series' monotonic order and, in a
// tier chunk, that its records are whole window groups, each aligned to its
// window. A sealed chunk (open unset) must end where its records do — no
// whole byte, and no set bit, past them — and is adopted: its bytes are
// copied at their exact size, and cols, delta and cc are left alone, since
// no append continues it. An open chunk is re-encoded in the code and layout
// the dump names (ChunkDump.Decimal, ChunkDump.OneSample), and the
// re-encoded bytes must match the dump, so an open chunk that decodes but is
// not what the encoder writes for its values — a decimal where an escape
// stands, a delta in a wider class than it needs — fails here. Returns the
// chunk (nil for an empty dump), its last timestamp and last value; the
// caller names the chunk in an error. cols is the coder's value columns: one
// for a raw chunk, re-encoded sample by sample, or rollupStride for a rollup
// tier's, whole window groups re-encoded through Chunk.appendGroup. An open
// chunk leaves in cols and delta its closing coder state, the series' or the
// tier's; a raw one leaves cc, unless nil, weighing its two codes the way the
// live append did, so the chunk after it opens in the code the dumped store
// would have chosen.
func restoreChunk(cd ChunkDump, lastT int64, hasLast, open bool, delta *int64, cols []colState, cc *codeCost) (*Chunk, int64, float64, error) {
	if cd.Count == 0 {
		return nil, 0, 0, nil
	}
	tier := len(cols) == rollupStride
	if tier && cd.Count%rollupStride != 0 {
		return nil, 0, 0, fmt.Errorf("%d records are not whole window groups", cd.Count)
	}
	if cd.OneSample && !tier {
		return nil, 0, 0, fmt.Errorf("a raw chunk in the one-sample window layout")
	}
	c := &Chunk{dec: cd.Decimal, oneSample: cd.OneSample}
	if open {
		// The re-encode must reproduce cd.Data, so its length is the
		// buffer's; the word-wide writer wants eight bytes of room past the
		// last bit.
		c.w.buf = make([]byte, 0, len(cd.Data)+8)
		clear(cols)
		*delta = 0
		if cc != nil {
			*cc = codeCost{}
		}
	}
	var it ChunkIter
	it.reset(cd.Data, cd.Count, tier, cd.Decimal, cd.OneSample)
	var ts [blockLen]int64
	var vs [blockLen]float64
	var group [rollupStride]float64
	var lastV float64
	records := 0
	for n := it.NextBlock(ts[:], vs[:]); n > 0; n = it.NextBlock(ts[:], vs[:]) {
		if records == 0 {
			c.firstT = ts[0]
		}
		for i, t := range ts[:n] {
			if hasLast && t <= lastT {
				return nil, 0, 0, fmt.Errorf("non-monotonic chunk sequence (%d <= %d)", t, lastT)
			}
			col := records % rollupStride
			if tier && (col == 0 && floorMod(t, rollupStride) != 0 || col > 0 && t != lastT+1) {
				return nil, 0, 0, fmt.Errorf("rollup stream misaligned at %d", t)
			}
			switch {
			case !open:
			case !tier:
				if err := c.append(t, vs[i], delta, &cols[0], cc); err != nil {
					return nil, 0, 0, err
				}
			default:
				group[col] = vs[i]
				if col == rollupStride-1 {
					if err := c.appendGroup(t-(rollupStride-1), &group, (*[rollupStride]colState)(cols), delta); err != nil {
						return nil, 0, 0, err
					}
				}
			}
			records++
			lastT, hasLast, lastV = t, true, vs[i]
		}
	}
	if err := it.Err(); err != nil {
		return nil, 0, 0, err
	}
	if open {
		if c.Count() != cd.Count || !bytes.Equal(c.w.bytes(), cd.Data) {
			return nil, 0, 0, fmt.Errorf("chunk re-encode mismatch (%d samples, %d bytes vs %d)", cd.Count, c.Bytes(), len(cd.Data))
		}
		return c, lastT, lastV, nil
	}
	if left := it.r.unread(); left >= 8 || cd.Data[len(cd.Data)-1]&(1<<left-1) != 0 {
		return nil, 0, 0, fmt.Errorf("sealed chunk holds %d bits past its %d records", left, cd.Count)
	}
	c.w.buf = append(make([]byte, 0, len(cd.Data)), cd.Data...)
	c.count, c.lastT = cd.Count, lastT
	return c, lastT, lastV, nil
}
