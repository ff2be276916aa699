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
	// (the containment LP of computeP and on-demand extension).
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

// VerdictCache memoizes pairwise C-dominance (and related predicate) LP
// outcomes within a build. Cached values are exact LP outcomes, not
// approximations: a hit returns precisely what re-running the LP on the same
// constraint set would return, so memoization cannot change any builder
// decision — it only skips redundant solves. Safe for concurrent use by the
// parallel builder workers; a nil *VerdictCache is a valid always-miss cache.
type VerdictCache struct {
	mu   sync.RWMutex
	m    map[VerdictKey]int8
	hits atomic.Uint64
	miss atomic.Uint64
}

// NewVerdictCache returns an empty cache.
func NewVerdictCache() *VerdictCache {
	return &VerdictCache{m: make(map[VerdictKey]int8)}
}

// Lookup returns the memoized verdict for k, if present.
func (c *VerdictCache) Lookup(k VerdictKey) (verdict int8, ok bool) {
	if c == nil {
		return 0, false
	}
	c.mu.RLock()
	verdict, ok = c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.miss.Add(1)
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
	c.mu.Lock()
	c.m[k] = verdict
	c.mu.Unlock()
}

// StoreBool stores a boolean predicate outcome.
func (c *VerdictCache) StoreBool(k VerdictKey, verdict bool) {
	if verdict {
		c.Store(k, 1)
	} else {
		c.Store(k, 0)
	}
}

// Reset forgets every memoized verdict, keeping the map's storage and the
// traffic counters: the per-record scope of the insert path, whose keys name
// the arriving option and can never be hit once its round is over.
func (c *VerdictCache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	clear(c.m)
	c.mu.Unlock()
}

// Stats reports cache traffic: hits, misses, and resident entries.
func (c *VerdictCache) Stats() (hits, misses uint64, size int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.RLock()
	size = len(c.m)
	c.mu.RUnlock()
	return c.hits.Load(), c.miss.Load(), size
}
