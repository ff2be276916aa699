// Package cache provides the serving tier's LSN-stamped answer cache.
//
// It holds answers that cost a scan, a walk or LPs to recompute — UTK, ORU
// and WhyNot — keyed by (query family, k, canonical family parameters).
// Top-k answers are not cached: a top-k answer is fixed by the cell chain
// its weights land in, and finding that chain is the walk that answers the
// query. Nor are kSPR and MaxRank answers, which are reads of the index's
// columns. Entries are stamped with
// the store's applied LSN at fill time and are valid only while the caller's
// LSN still matches — an insert bumps the LSN and thereby invalidates every
// cached answer wholesale, without touching the map. A replica that lags
// the writer simply presents an older LSN and misses; it can never serve a
// post-insert answer as fresh.
//
// Values must be treated as immutable by both sides: the cache returns the
// stored value without copying, so a hit costs one map lookup and no
// allocation.
package cache

import (
	"sync"
	"sync/atomic"
)

// Key addresses one cached answer. Family is the query family name
// ("kspr", "utk", ...); Cell is an optional cell-chain identity from
// Index.Locate (zero for the serving tier's families, which are keyed on
// parameters alone); K is the query depth; Params folds any remaining
// family-specific parameters into a canonical string.
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

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64 // valid entry found at the caller's LSN
	Misses    uint64 // no entry for the key
	Stale     uint64 // entry found but stamped with a different LSN
	Evictions uint64 // entries displaced by the per-shard capacity bound
	Entries   int    // current resident entries across all shards
}

// Cache is a sharded, LSN-stamped answer cache, safe for concurrent use.
type Cache struct {
	shards   []shard
	capacity int // per-shard entry bound

	hits      atomic.Uint64
	misses    atomic.Uint64
	stale     atomic.Uint64
	evictions atomic.Uint64
	entries   atomic.Int64
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
// entry stamped with a different LSN counts as a miss (reported in
// Stats.Stale); it stays resident until a Put at the current LSN replaces
// it. The returned value is shared — callers must not mutate it.
func (c *Cache) Get(key Key, lsn uint64) (any, bool) {
	s := &c.shards[key.shardIndex()]
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	if e.lsn != lsn {
		c.stale.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.val, true
}

// GetMulti is Get over a batch: vals[i], oks[i] receive the lookup of
// keys[i] at lsn (both slices must hold len(keys) elements). Lookups are
// grouped by shard, so a batch of equal keys — which collide on one shard —
// takes each shard's read lock once instead of once per item.
// Hit/miss/stale counters advance per key, exactly as per-key Gets would.
func (c *Cache) GetMulti(keys []Key, lsn uint64, vals []any, oks []bool) {
	var touched [numShards]bool
	sh := make([]uint8, len(keys))
	for i := range keys {
		si := keys[i].shardIndex()
		sh[i] = uint8(si)
		touched[si] = true
	}
	var hits, misses, stale uint64
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
			e, ok := s.m[keys[i]]
			switch {
			case !ok:
				misses++
			case e.lsn != lsn:
				stale++
			default:
				hits++
				vals[i], oks[i] = e.val, true
			}
		}
		s.mu.RUnlock()
	}
	c.hits.Add(hits)
	c.misses.Add(misses)
	c.stale.Add(stale)
}

// Put stores val as the answer for key at lsn, replacing any previous
// entry for the key. When the shard is at capacity an arbitrary resident
// entry is evicted first — with LSN-wholesale invalidation every entry is
// equally disposable after an insert, so eviction order carries no
// soundness weight.
func (c *Cache) Put(key Key, lsn uint64, val any) {
	s := &c.shards[key.shardIndex()]
	s.mu.Lock()
	if _, exists := s.m[key]; !exists {
		if len(s.m) >= c.capacity {
			for victim := range s.m {
				delete(s.m, victim)
				c.evictions.Add(1)
				c.entries.Add(-1)
				break
			}
		}
		c.entries.Add(1)
	}
	s.m[key] = entry{lsn: lsn, val: val}
	s.mu.Unlock()
}

// Purge drops every resident entry. The LSN stamp already prevents stale
// reads, so Purge exists for memory reclamation (e.g. an admin endpoint),
// not correctness.
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		c.entries.Add(-int64(len(s.m)))
		s.m = make(map[Key]entry)
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the counters. The counters are read
// individually, so a snapshot taken under concurrent traffic is consistent
// per-counter, not across counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stale:     c.stale.Load(),
		Evictions: c.evictions.Load(),
		Entries:   int(c.entries.Load()),
	}
}
