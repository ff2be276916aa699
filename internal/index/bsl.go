package index

import (
	"sync"

	"tlevelindex/internal/geom"
	"tlevelindex/internal/pool"
)

// buildBSL is the UTK₂-adapted baseline (§5.1): for every level ℓ ∈ [1, τ]
// it partitions the entire preference space from scratch into rank-ℓ cells
// (the adaptation of UTK₂ with the whole simplex as query region), then
// connects adjacent levels by pairwise intersection tests. Both steps are
// deliberately wasteful — re-partitioning repeats all the work of the lower
// levels τ times, and edge reconnection is quadratic in the level sizes —
// which is exactly the cost profile the paper reports for BSL.
//
// The τ scratch partitionings are fully independent, so they fan out over
// the worker pool (each scratch build runs its inner loops sequentially to
// avoid nested fan-out); so do the per-child edge reconnection LPs. All
// cell and edge materialization stays sequential in level/cell order, so
// the result is identical for every worker count.
func buildBSL(ix *Index) {
	type bslCell struct {
		r     []int32 // result set in rank order
		opt   int32
		bound []int32
	}
	perLevel := make([][]bslCell, ix.Tau+1)
	lpCalls := make([]int64, ix.Tau+1)
	memo := new(domMemo)
	pool.ForEach(ix.workers, ix.Tau, func(i int) {
		ell := i + 1
		// Fresh scratch enumeration of levels 1..ell; only level ell kept.
		scratch := &Index{Dim: ix.Dim, Tau: ell, Pts: ix.Pts, OrigIDs: ix.OrigIDs, workers: 1}
		scratch.newCell(0, NoOption, nil, []int32{})
		scratch.Stats.PostFilterCandidates = make([]float64, ell)
		scratch.Stats.ActualCandidates = make([]float64, ell)
		buildPBA(scratch, false, memo)
		lpCalls[ell] = scratch.Stats.LPCalls
		for _, id := range scratch.Levels[ell] {
			perLevel[ell] = append(perLevel[ell], bslCell{
				r:     scratch.ResultSet(id),
				opt:   scratch.Cells[id].Opt,
				bound: append([]int32(nil), scratch.Cells[id].Bound...),
			})
		}
	})
	for ell := 1; ell <= ix.Tau; ell++ {
		ix.Stats.LPCalls += lpCalls[ell]
	}

	// Assemble the DAG: create the cells level by level and reconnect with
	// pairwise full-dimensional intersection tests (Definition 4 edges).
	regionOf := func(bc bslCell) *geom.Region {
		reg := geom.NewRegion(ix.RDim())
		opt := ix.Pts[bc.opt]
		for _, j := range bc.r[:len(bc.r)-1] {
			reg.Add(geom.PrefHalfspace(ix.Pts[j], opt))
		}
		for _, b := range bc.bound {
			reg.Add(geom.PrefHalfspace(opt, ix.Pts[b]))
		}
		return reg
	}
	prevIDs := []int32{ix.Root()}
	prevCells := []bslCell{{}}
	for ell := 1; ell <= ix.Tau; ell++ {
		var ids []int32
		for _, bc := range perLevel[ell] {
			ids = append(ids, ix.newCell(int32(ell), bc.opt, nil, bc.bound))
		}
		type edgeResult struct {
			parents []int32
			lpCalls int64
		}
		results := make([]edgeResult, len(perLevel[ell]))
		pool.ForEach(ix.workers, len(perLevel[ell]), func(ci int) {
			bc := perLevel[ell][ci]
			var res edgeResult
			creg := regionOf(bc)
			cset := make(map[int32]bool, len(bc.r))
			for _, v := range bc.r {
				cset[v] = true
			}
			for pi, pid := range prevIDs {
				if ell == 1 {
					res.parents = append(res.parents, pid)
					continue
				}
				pc := prevCells[pi]
				// Cheap necessary condition first: the parent's result set
				// must be the child's minus its own option.
				ok := true
				for _, v := range pc.r {
					if !cset[v] || v == bc.opt {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				res.lpCalls++
				if regionOf(pc).IntersectsRegion(creg) {
					res.parents = append(res.parents, pid)
				}
			}
			results[ci] = res
		})
		for ci := range perLevel[ell] {
			ix.Stats.LPCalls += results[ci].lpCalls
			for _, pid := range results[ci].parents {
				ix.addEdge(pid, ids[ci])
			}
		}
		prevIDs, prevCells = ids, perLevel[ell]
	}
	ix.rebuildLevels()
}

// domMemo memoizes C-dominance verdicts across BSL's scratch builds, keyed
// by the option pair and the cell region's hash (geom.Region.Hash, the
// identity of its halfspace set). The level-ℓ scratch build re-partitions
// exactly the cells of every level below ℓ, so most of its dominance LPs
// repeat a shallower build's. A hit returns what re-running the LP would,
// so the memo changes no decision, only the LP count. The PBA builds pass
// nil, which always misses: no two of their cells share a region, and a
// PBA⁺ cell's confirmed dominances already live on as edges of its
// children's dominance graphs (Lemma 4). The scratch builds run on every
// worker and store nearly every verdict they compute, so the memo is 16
// locked shards, picked by the region hash: behind one lock BSL built ~15 %
// slower. A worker asks about one cell's region at a time, so the region
// alone spreads the workers over the shards.
type domMemo [16]domShard

type domShard struct {
	mu sync.RWMutex
	m  map[domKey]bool
}

type domKey struct {
	u, v   int32
	region uint64
}

// lookup returns the memoized verdict on "u C-dominates v over reg".
func (m *domMemo) lookup(u, v int32, reg *geom.Region) (dom, ok bool) {
	if m == nil {
		return false, false
	}
	k := domKey{u, v, reg.Hash()}
	s := &m[k.region>>60]
	s.mu.RLock()
	dom, ok = s.m[k]
	s.mu.RUnlock()
	return dom, ok
}

// store records the verdict; concurrent stores of one key carry one value.
func (m *domMemo) store(u, v int32, reg *geom.Region, dom bool) {
	if m == nil {
		return
	}
	k := domKey{u, v, reg.Hash()}
	s := &m[k.region>>60]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[domKey]bool)
	}
	s.m[k] = dom
	s.mu.Unlock()
}
