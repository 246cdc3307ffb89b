package serve

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/inst"
)

// cacheEntry is one resident instance: the immutable inst.Instance plus
// the core.Scratch whose partially drained sorted-edge stream is keyed
// to it. entry.mu serializes every use of the pair — the scratch is not
// safe for concurrent use, and neither is the instance's lazy distance
// matrix build — so concurrent requests for the same point set queue on
// the entry instead of re-sorting the edge list each.
type cacheEntry struct {
	hash   uint64
	metric geom.Metric
	pts    []geom.Point // full key material; hash collisions compare here
	// elem and bytes are cache bookkeeping, touched only under the
	// cache's mutex. elem is nil once the entry is evicted (or was never
	// resident), which is how reaccount knows to leave the byte total
	// alone.
	elem    *list.Element
	bytes   int64
	mu      sync.Mutex
	in      *inst.Instance
	scratch core.Scratch
}

// instCache is the LRU instance cache keyed by point-set hash. Repeated
// requests for the same (metric, source, sinks) re-serve one
// cacheEntry, so the drained sorted-edge prefix and the grown BKRUS
// working buffers survive across requests. Capacity counts entries; capBytes
// additionally bounds the accounted resident bytes (instance geometry
// caches plus scratch buffers, re-measured after every build), because
// entries are wildly unequal — one n=2048 dense entry outweighs
// thousands of small nets. capBytes <= 0 means unbounded, the
// historical entry-count-only behavior. A capacity <= 0 disables
// residency: lookups still return a private entry (the build path is
// uniform) but nothing is retained.
type instCache struct {
	mu       sync.Mutex
	cap      int
	capBytes int64
	total    int64 // accounted bytes across resident entries
	ents     map[uint64][]*cacheEntry
	lru      *list.List // front = most recent; values are *cacheEntry
}

func newInstCache(capacity int, capBytes int64) *instCache {
	return &instCache{
		cap:      capacity,
		capBytes: capBytes,
		ents:     map[uint64][]*cacheEntry{},
		lru:      list.New(),
	}
}

// pointSetHash is the cache key: FNV-1a over the metric tag and the
// exact float64 bit patterns of source then sinks, in order. Order
// matters by design — node ids in the response index the request's
// point list.
func pointSetHash(m geom.Metric, source geom.Point, sinks []geom.Point) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	buf[0] = byte(m)
	_, _ = h.Write(buf[:1]) // fnv.Write never fails
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:]) // fnv.Write never fails
	}
	put(source.X)
	put(source.Y)
	for _, p := range sinks {
		put(p.X)
		put(p.Y)
	}
	return h.Sum64()
}

// samePoints reports bit-exact equality of the key material, resolving
// hash collisions. Bit comparison (not float ==) is deliberate: cache
// identity is "same request bytes", and it sidesteps NaN/-0 equality
// pitfalls entirely.
func samePoints(e *cacheEntry, m geom.Metric, source geom.Point, sinks []geom.Point) bool {
	if e.metric != m || len(e.pts) != len(sinks)+1 {
		return false
	}
	eq := func(a, b geom.Point) bool {
		return math.Float64bits(a.X) == math.Float64bits(b.X) &&
			math.Float64bits(a.Y) == math.Float64bits(b.Y)
	}
	if !eq(e.pts[0], source) {
		return false
	}
	for i, p := range sinks {
		if !eq(e.pts[i+1], p) {
			return false
		}
	}
	return true
}

// lookup returns the cache entry for (metric, source, sinks), creating
// and inserting it on a miss (evicting the least recently used entry
// beyond capacity). hit reports whether the entry was already resident.
// Point validation happens here via inst.New, so a malformed net never
// enters the cache. The caller must hold entry.mu while building with
// the entry's instance or scratch.
func (c *instCache) lookup(m geom.Metric, source geom.Point, sinks []geom.Point) (e *cacheEntry, hit bool, err error) {
	key := pointSetHash(m, source, sinks)
	if c.cap > 0 {
		c.mu.Lock()
		for _, cand := range c.ents[key] {
			if samePoints(cand, m, source, sinks) {
				c.lru.MoveToFront(cand.elem)
				c.mu.Unlock()
				return cand, true, nil
			}
		}
		c.mu.Unlock()
	}

	// Miss: build the instance outside the cache lock (inst.New copies
	// and validates the points).
	in, err := inst.New(source, sinks, m)
	if err != nil {
		return nil, false, err
	}
	e = &cacheEntry{hash: key, metric: m, pts: in.Points(), in: in}
	if c.cap <= 0 {
		return e, false, nil // residency disabled: private entry
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-check: a racing request may have inserted the same point set
	// while we were validating.
	for _, cand := range c.ents[key] {
		if samePoints(cand, m, source, sinks) {
			c.lru.MoveToFront(cand.elem)
			return cand, true, nil
		}
	}
	e.elem = c.lru.PushFront(e)
	c.ents[key] = append(c.ents[key], e)
	for c.lru.Len() > c.cap {
		c.evictOldestLocked()
	}
	c.shedBytesLocked()
	return e, false, nil
}

// reaccount records the entry's measured resident size and sheds
// least-recently-used entries while the byte total is over budget. The
// caller holds entry.mu (so the measurement is stable); the lock order
// entry.mu → cache.mu is the only nesting of the two and lookup takes
// cache.mu alone, so the pair stays acyclic. Evicted and private
// entries (elem == nil) are not accounted.
func (c *instCache) reaccount(e *cacheEntry, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.elem == nil {
		return
	}
	c.total += bytes - e.bytes
	e.bytes = bytes
	c.shedBytesLocked()
}

// shedBytesLocked evicts from the cold end until the byte budget holds.
// The most recent entry always stays resident: it is the one a request
// is (or just was) building with, and evicting it would only thrash —
// the bytes are live in the holder's hands regardless.
func (c *instCache) shedBytesLocked() {
	if c.capBytes <= 0 {
		return
	}
	for c.total > c.capBytes && c.lru.Len() > 1 {
		c.evictOldestLocked()
	}
}

// evictOldestLocked drops the least recently used entry. The entry is
// only unlinked — a request that already holds it finishes its build on
// the private reference and the garbage collector reclaims the O(n²)
// scratch state once the last holder returns.
func (c *instCache) evictOldestLocked() {
	back := c.lru.Back()
	if back == nil {
		return
	}
	old := c.lru.Remove(back).(*cacheEntry)
	c.total -= old.bytes
	old.elem = nil
	bucket := c.ents[old.hash]
	for i, cand := range bucket {
		if cand == old {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(c.ents, old.hash)
	} else {
		c.ents[old.hash] = bucket
	}
}

// len returns the number of resident entries.
func (c *instCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// bytes returns the accounted resident byte total.
func (c *instCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}
