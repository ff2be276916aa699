package dg

import (
	"sync"
	"sync/atomic"
)

// VerdictKind namespaces the memoized predicate families so one cache can
// serve all builders without key collisions.
type VerdictKind uint8

const (
	// KindDominates memoizes "option U C-dominates option V over the region"
	// (the containment LP of computeP and of ExtendTau).
	KindDominates VerdictKind = iota
	// KindClassify memoizes the three-way hyperplane classification of the
	// insertion-based builder: the value is the geom.Rel as an int8.
	KindClassify
	// KindFeasible memoizes region feasibility (U and V are zero; the region
	// hash alone identifies the constraint set).
	KindFeasible
)

// VerdictKey identifies one memoized LP outcome: a predicate kind, the
// option pair, and the cell region. The region component is
// geom.Region.Hash() — the order-independent identity of the cell's
// deduplicated halfspace set — so two cells bounded by the same halfspaces
// (common across builder passes and BSL's per-level scratch builds) share
// one verdict.
type VerdictKey struct {
	Kind   VerdictKind
	U, V   int32
	Region uint64
}

// verdictShards is the number of independently locked shards of a
// VerdictCache. Parallel builder workers store a verdict for nearly every
// dominance test, so one lock serialized them; 64 shards make two workers
// collide on a shard about once in 64 operations.
const verdictShards = 64

// VerdictCache memoizes pairwise C-dominance (and related predicate) LP
// outcomes within a build. Cached values are exact LP outcomes, not
// approximations: a hit returns precisely what re-running the LP on the same
// constraint set would return, so memoization cannot change any builder
// decision — it only skips redundant solves. Safe for concurrent use by the
// parallel builder workers: keys are spread over verdictShards shards by a
// hash of the key, each with its own lock, map and traffic counters. A nil
// *VerdictCache is a valid always-miss cache.
type VerdictCache struct {
	shards [verdictShards]verdictShard
}

type verdictShard struct {
	mu   sync.RWMutex
	m    map[VerdictKey]int8
	hits atomic.Uint64
	miss atomic.Uint64
	_    [16]byte // pad to 64 bytes, a cache line, so neighbouring shards rarely share one
}

// NewVerdictCache returns an empty cache.
func NewVerdictCache() *VerdictCache {
	c := new(VerdictCache)
	for i := range c.shards {
		c.shards[i].m = make(map[VerdictKey]int8)
	}
	return c
}

// shard picks k's shard from the top bits of a multiplicative hash of every
// key field.
func (c *VerdictCache) shard(k VerdictKey) *verdictShard {
	h := k.Region ^ uint64(uint32(k.U))<<32 ^ uint64(uint32(k.V)) ^ uint64(k.Kind)<<61
	h *= 0x9e3779b97f4a7c15
	return &c.shards[h>>58]
}

// Lookup returns the memoized verdict for k, if present.
func (c *VerdictCache) Lookup(k VerdictKey) (verdict int8, ok bool) {
	if c == nil {
		return 0, false
	}
	s := c.shard(k)
	s.mu.RLock()
	verdict, ok = s.m[k]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.miss.Add(1)
	}
	return verdict, ok
}

// LookupBool is Lookup for boolean predicates stored via StoreBool.
func (c *VerdictCache) LookupBool(k VerdictKey) (verdict, ok bool) {
	v, ok := c.Lookup(k)
	return v != 0, ok
}

// Store records the LP outcome for k. Concurrent stores for the same key
// always carry the same value (the LP is deterministic on identical
// constraint sets), so last-write-wins is harmless.
func (c *VerdictCache) Store(k VerdictKey, verdict int8) {
	if c == nil {
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	s.m[k] = verdict
	s.mu.Unlock()
}

// StoreBool stores a boolean predicate outcome.
func (c *VerdictCache) StoreBool(k VerdictKey, verdict bool) {
	if verdict {
		c.Store(k, 1)
	} else {
		c.Store(k, 0)
	}
}

// Stats reports cache traffic: hits, misses, and resident entries.
func (c *VerdictCache) Stats() (hits, misses uint64, size int) {
	if c == nil {
		return 0, 0, 0
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		size += len(s.m)
		s.mu.RUnlock()
		hits += s.hits.Load()
		misses += s.miss.Load()
	}
	return hits, misses, size
}
