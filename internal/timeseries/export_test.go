package timeseries

// CodeBytes is what one series' raw and rollup tier chunks hold, and what
// the same chunks would hold Gorilla-coded throughout.
type CodeBytes struct {
	Actual, Gorilla, Chunks int
}

// SeriesCodeBytes reports CodeBytes for every series of s, by key: each
// chunk decoded and coded again with no decimal column, at the same
// boundaries.
func SeriesCodeBytes(s *Store) map[string]CodeBytes {
	out := make(map[string]CodeBytes)
	s.scanSeries(func(ss *storedSeries) {
		ss.mu.RLock()
		defer ss.mu.RUnlock()
		var cb CodeBytes
		for _, c := range ss.chunks {
			g := newRawChunk(false)
			for it := c.Iter(); it.Next(); {
				_ = g.Append(it.t, it.v)
			}
			cb.Actual += c.Bytes()
			cb.Gorilla += g.Bytes()
			cb.Chunks++
		}
		for _, ts := range ss.tiers {
			for _, c := range ts.chunks {
				g := NewChunk()
				g.oneSample = c.oneSample
				var pred [rollupStride]colState
				var delta int64
				var vals [rollupStride]float64
				var it ChunkIter
				it.reset(c.w.bytes(), c.count, true, c.dec, c.oneSample)
				for i := 0; it.Next(); i++ {
					vals[i%rollupStride] = it.v
					if i%rollupStride == rollupStride-1 {
						_ = g.appendGroup(it.t-(rollupStride-1), &vals, &pred, &delta)
					}
				}
				cb.Actual += c.Bytes()
				cb.Gorilla += g.Bytes()
				cb.Chunks++
			}
		}
		out[ss.key] = cb
	})
	return out
}
