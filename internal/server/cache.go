package server

import (
	"container/list"
	"sync"

	"sfcp"
)

// resultCache is a bounded LRU over solve results keyed by
// (algorithm, seed, instance digest). Results are immutable once stored —
// handlers must not mutate the Labels slice they get back.
//
// Two caps, both optional: an entry count (the seed's original bound) and
// a resident-byte budget. Either cap alone can be the binding one — a
// thousand tiny results trip the count, a handful of million-element
// label slices trip the bytes — and eviction runs until both hold.
type resultCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64      // 0 = unbounded (the seed behavior)
	bytes    int64      // estimated resident bytes of all entries
	order    *list.List // front = most recent; values are *cacheEntry
	entries  map[string]*list.Element
}

type cacheEntry struct {
	key  string
	res  sfcp.Result
	size int64
}

// cacheEntryOverhead approximates an entry's fixed footprint beyond its
// labels: the key string, the list element, the map bucket share, and the
// Result header. The label slice dominates for anything non-trivial, so
// precision here only matters for the degenerate all-tiny-entries case.
const cacheEntryOverhead = 256

// entrySize estimates one result's resident bytes.
func entrySize(key string, res sfcp.Result) int64 {
	return int64(len(res.Labels))*8 + int64(len(key)) + cacheEntryOverhead
}

// newResultCache returns a cache holding up to capacity results;
// capacity <= 0 disables caching (Get always misses, Put is a no-op).
// maxBytes additionally bounds the estimated resident bytes (0 = no byte
// bound); a single result larger than maxBytes is never admitted.
func newResultCache(capacity int, maxBytes int64) *resultCache {
	return &resultCache{
		cap:      capacity,
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  map[string]*list.Element{},
	}
}

// enabled reports whether results are being stored at all — callers use
// it to skip digest and key construction when caching is off.
func (c *resultCache) enabled() bool { return c.cap > 0 }

func (c *resultCache) Get(key string) (sfcp.Result, bool) {
	if c.cap <= 0 {
		return sfcp.Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return sfcp.Result{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

func (c *resultCache) Put(key string, res sfcp.Result) {
	if c.cap <= 0 {
		return
	}
	size := entrySize(key, res)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && size > c.maxBytes {
		// Bigger than the whole budget: admitting it would evict everything
		// and still bust the cap. Drop any stale entry under the key too —
		// keeping an older result for a key we just declined would serve
		// stale bytes forever.
		if el, ok := c.entries[key]; ok {
			c.removeLocked(el)
		}
		return
	}
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += size - ent.size
		ent.res, ent.size = res, size
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res, size: size})
		c.bytes += size
	}
	for c.order.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest)
	}
}

func (c *resultCache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.entries, ent.key)
	c.bytes -= ent.size
}

func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes reports the estimated resident bytes of all entries — the
// sfcpd_cache_bytes gauge.
func (c *resultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
