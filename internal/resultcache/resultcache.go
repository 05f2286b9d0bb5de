// Package resultcache is an LRU cache with per-entry TTL for serialized
// query results. The query front door keys it by the canonical query
// parameters, so repeated dashboard refreshes of the same window are served
// from memory without touching the store; the TTL bounds staleness against
// ongoing ingest (a result older than the TTL is recomputed, so a cached
// answer can lag the live store by at most that long).
package resultcache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64 // LRU pressure + TTL expiries
	Entries   int
}

// Cache is an LRU+TTL result cache: one recency list and index under one
// mutex. The zero value is not usable; construct with New. A Cache with
// capacity 0 stores nothing (every Get misses), which callers use to
// disable caching without branching.
type Cache struct {
	capacity int
	ttl      time.Duration
	now      func() time.Time

	mu    sync.Mutex
	lru   *list.List // front = most recent
	index map[string]*list.Element

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type entry struct {
	key     string
	val     []byte
	expires time.Time
}

// Option tunes a Cache.
type Option func(*Cache)

// WithClock injects the time source (tests freeze and advance it).
func WithClock(now func() time.Time) Option {
	return func(c *Cache) { c.now = now }
}

// New builds a cache holding up to capacity entries in total, each valid
// for ttl after insertion (ttl <= 0 means entries never expire by age).
func New(capacity int, ttl time.Duration, opts ...Option) *Cache {
	c := &Cache{
		capacity: max(capacity, 0),
		ttl:      ttl,
		now:      time.Now,
		lru:      list.New(),
		index:    make(map[string]*list.Element),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Get returns the cached value for key, or nil, false on a miss. Expired
// entries are removed on access and count as both an eviction and a miss.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.index[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	en := el.Value.(*entry)
	if c.ttl > 0 && c.now().After(en.expires) {
		c.lru.Remove(el)
		delete(c.index, key)
		c.mu.Unlock()
		c.evictions.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	val := en.val
	c.mu.Unlock()
	c.hits.Add(1)
	return val, true
}

// Put stores a value under key, evicting the least-recently-used entry if
// the cache is full. The value is retained by reference; callers must not
// mutate it afterwards.
func (c *Cache) Put(key string, val []byte) {
	if c.capacity == 0 {
		return
	}
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		en := el.Value.(*entry)
		en.val = val
		en.expires = c.now().Add(c.ttl)
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	evicted := 0
	for c.lru.Len() >= c.capacity {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.index, back.Value.(*entry).key)
		evicted++
	}
	c.index[key] = c.lru.PushFront(&entry{key: key, val: val, expires: c.now().Add(c.ttl)})
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
}

// Stats snapshots the cache counters and current entry count.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries := c.lru.Len()
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}
