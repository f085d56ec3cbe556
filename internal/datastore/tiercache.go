package datastore

import (
	"container/list"
	"sync"
	"sync/atomic"

	"campuslab/internal/obs"
)

// The decoded-block cache: a bytes-bounded LRU over inflated data-column
// blocks, keyed by (segment seq, block index). Segment files are
// immutable and seqs are never reused, so a cached block can never go
// stale — invalidation (on compact/retain, when segment files are
// replaced or deleted) exists only to release memory promptly, not for
// correctness. TierPolicy.CacheBytes sizes it; 0 (the default) disables
// caching entirely and queries behave exactly as before.

// Cache traffic metrics for /metrics. Counters are also mirrored
// per-tier (tierCache fields) so tests and labd STATS can diff one
// store without scraping the process registry.
var (
	obsTierCacheHits      = obs.Default.Counter("campuslab_tier_cache_hits_total")
	obsTierCacheMisses    = obs.Default.Counter("campuslab_tier_cache_misses_total")
	obsTierCacheEvictions = obs.Default.Counter("campuslab_tier_cache_evictions_total")
	obsTierCacheBytes     = obs.Default.Gauge("campuslab_tier_cache_bytes")
	obsTierCacheEntries   = obs.Default.Gauge("campuslab_tier_cache_entries")
)

// blockKey identifies one decoded block: the segment's immutable file
// sequence number plus the block index within its data column.
type blockKey struct {
	seq   uint64
	block int
}

type cacheEnt struct {
	key blockKey
	buf []byte
}

// tierCache is the bounded LRU. One instance per tier; all methods are
// safe for concurrent use.
type tierCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	ll      *list.List // front = most recently used
	entries map[blockKey]*list.Element

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

func newTierCache(maxBytes int64) *tierCache {
	return &tierCache{
		max:     maxBytes,
		ll:      list.New(),
		entries: make(map[blockKey]*list.Element),
	}
}

func (c *tierCache) get(k blockKey) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.ll.MoveToFront(e)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		obsTierCacheMisses.Inc()
		return nil, false
	}
	c.hits.Add(1)
	obsTierCacheHits.Inc()
	return e.Value.(*cacheEnt).buf, true
}

// put admits one decoded block, evicting from the cold end until the
// budget holds. Blocks larger than the whole budget are not admitted.
func (c *tierCache) put(k blockKey, buf []byte) {
	if int64(len(buf)) > c.max {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		// Racing fill of the same block: keep the incumbent.
		c.ll.MoveToFront(e)
		c.mu.Unlock()
		return
	}
	c.entries[k] = c.ll.PushFront(&cacheEnt{key: k, buf: buf})
	c.bytes += int64(len(buf))
	evicted := uint64(0)
	for c.bytes > c.max {
		back := c.ll.Back()
		ent := back.Value.(*cacheEnt)
		c.ll.Remove(back)
		delete(c.entries, ent.key)
		c.bytes -= int64(len(ent.buf))
		evicted++
	}
	c.publishLocked()
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
		obsTierCacheEvictions.Add(evicted)
	}
}

// dropSegs invalidates every block belonging to the given segment seqs —
// called when compaction or retention removes their files.
func (c *tierCache) dropSegs(seqs map[uint64]bool) {
	if len(seqs) == 0 {
		return
	}
	c.mu.Lock()
	for k, e := range c.entries {
		if seqs[k.seq] {
			c.bytes -= int64(len(e.Value.(*cacheEnt).buf))
			c.ll.Remove(e)
			delete(c.entries, k)
		}
	}
	c.publishLocked()
	c.mu.Unlock()
}

func (c *tierCache) publishLocked() {
	obsTierCacheBytes.Set(float64(c.bytes))
	obsTierCacheEntries.Set(float64(c.ll.Len()))
}

// size reports the resident footprint.
func (c *tierCache) size() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, c.ll.Len()
}

// blockSource routes one segment's block fetches through the tier cache.
// A nil source (cache disabled, or a mutator path like compaction that
// must not pollute the cache) inflates directly.
type blockSource struct {
	cache *tierCache
	seq   uint64
}

func (bs *blockSource) block(d *segData, b int) ([]byte, error) {
	if bs == nil || bs.cache == nil {
		return d.inflateBlock(b)
	}
	k := blockKey{seq: bs.seq, block: b}
	if buf, ok := bs.cache.get(k); ok {
		return buf, nil
	}
	buf, err := d.inflateBlock(b)
	if err != nil {
		return nil, err
	}
	bs.cache.put(k, buf)
	return buf, nil
}
