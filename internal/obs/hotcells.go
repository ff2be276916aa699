package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// HotCells is a sampled, bounded sketch of per-cell query traffic. The
// index's core property — every preference vector in a cell shares one
// answer — makes the cell the natural unit of production skew: a handful of
// hot cells is the expected regime under clustered preference traffic.
//
// Observations are sampled 1-in-sampleEvery via one atomic counter, so the
// query path pays a single uncontended atomic add in the common case; only
// sampled observations touch a shard. Each shard keeps a bounded map of
// cell slots with atomic counters; when a shard is full an incoming cell
// evicts the coldest resident slot and inherits its total as an overcount
// floor (the space-saving sketch's trick), so a genuinely hot cell cannot be
// kept out by a full table while the table stays a fixed size forever.
type HotCells struct {
	tick   atomic.Uint64
	mask   uint64 // sample when tick&mask == 0
	shards [hcShards]hcShard
	per    int // per-shard slot bound
}

const hcShards = 4

type hcShard struct {
	mu sync.RWMutex
	m  map[uint64]*hcSlot
}

type hcSlot struct {
	n atomic.Uint64 // sampled observations
	// floor is the evicted predecessor's total at takeover time: the
	// space-saving overcount bound, kept so Top can report totals that
	// never undercount a hot cell relative to an evicted cold one.
	floor uint64
}

// CellStat is one cell's sampled traffic in a Top snapshot.
type CellStat struct {
	Cell  uint64
	Total uint64 // sampled observations + eviction floor
}

// DefaultHotCellSample is the sampling divisor NewHotCells applies when
// sampleEvery is 0. Powers of two keep the sample test a mask.
const DefaultHotCellSample = 64

// NewHotCells returns a sketch tracking roughly capacity cells (0 selects
// 1024), sampling one observation in sampleEvery (rounded down to a power
// of two; 0 selects DefaultHotCellSample, 1 records everything).
func NewHotCells(capacity, sampleEvery int) *HotCells {
	if capacity <= 0 {
		capacity = 1024
	}
	if sampleEvery <= 0 {
		sampleEvery = DefaultHotCellSample
	}
	mask := uint64(1)
	for mask*2 <= uint64(sampleEvery) {
		mask *= 2
	}
	per := (capacity + hcShards - 1) / hcShards
	if per < 1 {
		per = 1
	}
	h := &HotCells{mask: mask - 1, per: per}
	for i := range h.shards {
		h.shards[i].m = make(map[uint64]*hcSlot, per)
	}
	return h
}

// SampleEvery is the effective sampling divisor (a power of two).
func (h *HotCells) SampleEvery() int { return int(h.mask) + 1 }

// Observe records one query against cell, subject to sampling. Safe
// for concurrent use and on a nil receiver; the unsampled path is one
// atomic add. The increment always lands while a shard lock is held, so a
// concurrent admit cannot evict the slot between lookup and bump — every
// sampled observation is accounted in exactly one resident slot and the
// space-saving invariant (the sum of slot totals equals the sampled
// observation count) holds under eviction churn.
func (h *HotCells) Observe(cell uint64) {
	if h == nil {
		return
	}
	if h.tick.Add(1)&h.mask != 0 {
		return
	}
	sh := &h.shards[splitmix64(cell)&(hcShards-1)]
	sh.mu.RLock()
	if slot := sh.m[cell]; slot != nil {
		slot.n.Add(1)
		sh.mu.RUnlock()
		return
	}
	sh.mu.RUnlock()
	h.admit(sh, cell)
}

// admit records one observation against cell's slot, inserting it — and
// evicting the coldest resident when the shard is full — under the write
// lock. The newcomer inherits the victim's total as its floor.
func (h *HotCells) admit(sh *hcShard, cell uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot := sh.m[cell]
	if slot == nil {
		slot = &hcSlot{}
		if len(sh.m) >= h.per {
			var victim uint64
			minTotal := ^uint64(0)
			for c, s := range sh.m {
				if t := s.total(); t < minTotal {
					minTotal, victim = t, c
				}
			}
			delete(sh.m, victim)
			slot.floor = minTotal
		}
		sh.m[cell] = slot
	}
	slot.n.Add(1)
}

func (s *hcSlot) total() uint64 {
	return s.n.Load() + s.floor
}

// Top returns the n busiest sampled cells, hottest first. Counts are in
// sampled observations; multiply by SampleEvery for an unbiased traffic
// estimate. Safe on a nil receiver (returns nil).
func (h *HotCells) Top(n int) []CellStat {
	if h == nil {
		return nil
	}
	if n <= 0 {
		n = 20
	}
	var out []CellStat
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.RLock()
		for cell, slot := range sh.m {
			out = append(out, CellStat{Cell: cell, Total: slot.total()})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Cell < out[j].Cell
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
