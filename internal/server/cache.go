package server

import (
	"container/list"
	"math/bits"
	"sync"

	"sfcp"
)

// resultCache is a bounded LRU over solve results keyed by
// (algorithm, seed, instance digest). An entry keeps its labels packed
// (packedLabels) and every Get unpacks them into a fresh slice, so a
// caller owns the Labels it gets back.
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

// cacheEntry is one result at rest: the Result without its Labels, which
// sit beside it in packed form.
type cacheEntry struct {
	key    string
	res    sfcp.Result
	labels packedLabels
	size   int64
}

// packedLabels holds n non-negative labels as fixed-width bit fields,
// label i in bits [i·width, (i+1)·width) of words, little-endian across
// word boundaries. A result's labels are dense in [0, k), so width is
// ⌈log₂ k⌉ bits (0 when k ≤ 1, at most 31 for a valid instance) in place
// of the 64 an int takes. The words are never written after packLabels
// returns, so readers may share them without a lock.
type packedLabels struct {
	n     int
	width uint
	words []uint64
}

// packLabels packs labels at the width of the largest one.
func packLabels(labels []int) packedLabels {
	var all uint
	for _, l := range labels {
		all |= uint(l)
	}
	w := uint(bits.Len(all))
	p := packedLabels{n: len(labels), width: w}
	if w == 0 {
		return p
	}
	p.words = make([]uint64, (uint(len(labels))*w+63)/64)
	var bit uint
	for _, l := range labels {
		v := uint64(l)
		i, off := bit/64, bit%64
		p.words[i] |= v << off
		if off+w > 64 {
			p.words[i+1] |= v >> (64 - off)
		}
		bit += w
	}
	return p
}

// unpack returns the labels in a fresh slice.
func (p packedLabels) unpack() []int {
	out := make([]int, p.n)
	w := p.width
	if w == 0 {
		return out
	}
	mask := uint64(1)<<w - 1 // all ones at w = 64
	var bit uint
	for i := range out {
		j, off := bit/64, bit%64
		v := p.words[j] >> off
		if off+w > 64 {
			v |= p.words[j+1] << (64 - off)
		}
		out[i] = int(v & mask)
		bit += w
	}
	return out
}

// cacheEntryOverhead approximates an entry's fixed footprint beyond its
// packed labels: the list element, the map bucket share, and the Result
// and packedLabels headers. The label words dominate for anything
// non-trivial, so precision here only matters for the degenerate
// all-tiny-entries case.
const cacheEntryOverhead = 256

// entrySize estimates one entry's resident bytes.
func entrySize(key string, labels packedLabels) int64 {
	return int64(len(labels.words))*8 + int64(len(key)) + cacheEntryOverhead
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

// Get returns the result stored under key with its labels in a fresh
// slice; the unpack runs after the lock is released.
func (c *resultCache) Get(key string) (sfcp.Result, bool) {
	if c.cap <= 0 {
		return sfcp.Result{}, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return sfcp.Result{}, false
	}
	c.order.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	res, labels := ent.res, ent.labels
	c.mu.Unlock()
	res.Labels = labels.unpack()
	return res, true
}

// Put stores res under key. It packs the labels before taking the lock
// and keeps no reference to res.Labels.
func (c *resultCache) Put(key string, res sfcp.Result) {
	if c.cap <= 0 {
		return
	}
	labels := packLabels(res.Labels)
	res.Labels = nil
	size := entrySize(key, labels)
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
		ent.res, ent.labels, ent.size = res, labels, size
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res, labels: labels, size: size})
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
