package timeseries

import "sync"

// RefCache adapts keyed batches onto the ref fast path: it memoizes
// Resolve per series key, so a steady-state AppendBatch through the cache
// pays one map probe per entry instead of hashing and shard-locking inside
// the store, and — when the caller already has the keys in hand (the
// cluster router computes them for ring placement) — nothing else. Refs
// stay valid for the life of the store behind the appender, so the cache
// survives retention; it starts over only when the appender reports a
// different store epoch. An appender that refuses to resolve (closed, WAL
// error) refuses the batch.
type RefCache struct {
	mu    sync.Mutex
	a     RefAppender
	epoch uint64
	refs  map[string]SeriesRef
	buf   []RefEntry
}

// NewRefCache wraps a ref-capable appender.
func NewRefCache(a RefAppender) *RefCache {
	return &RefCache{a: a, refs: make(map[string]SeriesRef)}
}

// AppendBatch appends keyed entries through the ref path, with the same
// (appended, first error) contract as Store.AppendBatch.
func (c *RefCache) AppendBatch(entries []BatchEntry) (int, error) {
	return c.AppendBatchKeys(entries, nil)
}

// AppendBatchKeys is AppendBatch with the series keys precomputed by the
// caller (keys[i] must equal entries[i].ID.Key(); nil computes them).
func (c *RefCache) AppendBatchKeys(entries []BatchEntry, keys []string) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch := c.a.RefEpoch(); epoch != c.epoch {
		clear(c.refs)
		c.epoch = epoch
	}
	c.buf = c.buf[:0]
	for i := range entries {
		e := &entries[i]
		key := ""
		if keys != nil {
			key = keys[i]
		} else {
			key = e.ID.Key()
		}
		ref, ok := c.refs[key]
		if !ok {
			var err error
			ref, err = c.a.Resolve(e.ID, e.Kind, e.Unit)
			if err != nil {
				return 0, err
			}
			c.refs[key] = ref
		}
		c.buf = append(c.buf, RefEntry{Ref: ref, T: e.T, V: e.V})
	}
	return c.a.AppendRefs(c.buf)
}
