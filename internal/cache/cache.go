// Package cache is an LSN-stamped, sharded answer cache. The serving tier
// no longer imports it: every query answers from the index, because no
// benchmark workload repeats an analytic query and a cache only pays on
// repeats (DESIGN.md §16). What is left is the surface bench/layers.go
// replays a top-k cache through — New, Key, Get, Put and GetMulti — and the
// benchmark change that replaces that replay with the server's own spans
// deletes the package along with it.
//
// Entries are stamped with the LSN they were computed at and are valid only
// while the caller's LSN still matches, so a new LSN invalidates every entry
// wholesale without touching the map. Values must be treated as immutable
// by both sides: the cache returns the stored value without copying, so a
// hit costs one map lookup and no allocation.
package cache

import "sync"

// Key addresses one cached answer. Family is the query family name
// ("topk", "utk", ...); Cell is an optional cell-chain identity from
// Index.Locate (zero for a family keyed on parameters alone); K is the
// query depth; Params folds any remaining family-specific parameters into a
// canonical string.
type Key struct {
	Family string
	Cell   uint64
	K      int
	Params string
}

// entry is one stored answer with the LSN it was computed at.
type entry struct {
	lsn uint64
	val any
}

// shard is one lock domain of the cache.
type shard struct {
	mu sync.RWMutex
	m  map[Key]entry
}

// Cache is a sharded, LSN-stamped answer cache, safe for concurrent use.
type Cache struct {
	shards   []shard
	capacity int // per-shard entry bound
}

// numShards spreads lock contention; a power of two keeps selection a mask.
const numShards = 16

// New returns a cache bounded to roughly maxEntries resident answers
// (rounded up to a multiple of the shard count). maxEntries < 1 selects a
// minimal one-entry-per-shard cache.
func New(maxEntries int) *Cache {
	per := (maxEntries + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]shard, numShards), capacity: per}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]entry)
	}
	return c
}

// FNV-1a over the key fields selects the shard. Only the distribution
// matters here; the map handles full equality.
func (k *Key) shardIndex() uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(k.Family); i++ {
		h = (h ^ uint64(k.Family[i])) * prime
	}
	v := k.Cell
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * prime
		v >>= 8
	}
	h = (h ^ uint64(uint(k.K))) * prime
	for i := 0; i < len(k.Params); i++ {
		h = (h ^ uint64(k.Params[i])) * prime
	}
	return h & (numShards - 1)
}

// Get returns the cached answer for key at the caller's LSN. A stored
// entry stamped with a different LSN is a miss; it stays resident until a
// Put at the current LSN replaces it. The returned value is shared —
// callers must not mutate it.
func (c *Cache) Get(key Key, lsn uint64) (any, bool) {
	s := &c.shards[key.shardIndex()]
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if !ok || e.lsn != lsn {
		return nil, false
	}
	return e.val, true
}

// GetMulti is Get over a batch: vals[i], oks[i] receive the lookup of
// keys[i] at lsn (both slices must hold len(keys) elements). Lookups are
// grouped by shard, so a batch of equal keys — which collide on one shard —
// takes each shard's read lock once instead of once per item.
func (c *Cache) GetMulti(keys []Key, lsn uint64, vals []any, oks []bool) {
	var touched [numShards]bool
	sh := make([]uint8, len(keys))
	for i := range keys {
		si := keys[i].shardIndex()
		sh[i] = uint8(si)
		touched[si] = true
	}
	for si := range c.shards {
		if !touched[si] {
			continue
		}
		s := &c.shards[si]
		s.mu.RLock()
		for i := range keys {
			if int(sh[i]) != si {
				continue
			}
			if e, ok := s.m[keys[i]]; ok && e.lsn == lsn {
				vals[i], oks[i] = e.val, true
			}
		}
		s.mu.RUnlock()
	}
}

// Put stores val as the answer for key at lsn, replacing any previous
// entry for the key. When the shard is at capacity an arbitrary resident
// entry is evicted first — with LSN-wholesale invalidation every entry is
// equally disposable after an insert, so eviction order carries no
// soundness weight.
func (c *Cache) Put(key Key, lsn uint64, val any) {
	s := &c.shards[key.shardIndex()]
	s.mu.Lock()
	if _, exists := s.m[key]; !exists && len(s.m) >= c.capacity {
		for victim := range s.m {
			delete(s.m, victim)
			break
		}
	}
	s.m[key] = entry{lsn: lsn, val: val}
	s.mu.Unlock()
}
