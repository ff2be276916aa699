package index

import (
	"time"

	"tlevelindex/internal/dg"
	"tlevelindex/internal/geom"
	"tlevelindex/internal/pool"
	"tlevelindex/internal/skyline"
)

// ensureLevels deepens the index to k levels — the "lookup-based
// computation" regime of Figure 14, where the levels past τ are partitioned
// from the precomputed level-τ cells — and raises Tau to k. Only ExtendTau
// calls it, and only on an index that holds its full dataset.
func (ix *Index) ensureLevels(k int) {
	// Extension creates cells and edges through the staging slices; thaw the
	// flat form, extend, and re-freeze below.
	ix.thaw()
	defer ix.freeze()
	ix.ensurePool(k)
	instrumented := ix.trace != nil || ix.progress != nil
	var extendStart, levelStart time.Time
	if instrumented {
		extendStart = time.Now()
	}
	for l := ix.Tau; l < k; l++ {
		if instrumented {
			levelStart = time.Now()
		}
		lpBefore := ix.Stats.LPCalls
		parents := ix.Levels[l]
		// Parallel compute: each leaf cell's candidate refinement and
		// feasibility LPs are independent. Cells and edges are then
		// materialized sequentially in parent order, so the extension is
		// deterministic for every worker count.
		results := make([]extendResult, len(parents))
		pool.ForEach(ix.workers, len(parents), func(i int) {
			results[i] = ix.partitionLeaf(parents[i])
		})
		var created []int32
		for i, pid := range parents {
			res := &results[i]
			ix.Stats.LPCalls += res.lpCalls
			if res.hadChildren {
				created = append(created, ix.Cells[pid].Children...)
				continue
			}
			level := ix.Cells[pid].Level
			for _, cs := range res.children {
				child := ix.newCell(level+1, cs.opt, []int32{pid}, cs.bound)
				ix.addEdge(pid, child)
				created = append(created, child)
			}
		}
		merged, _ := ix.mergeLevel(created, nil)
		ix.Levels = append(ix.Levels, merged)
		if instrumented {
			ix.reportLevel("extend.level", l+1, k, len(merged),
				ix.Stats.LPCalls-lpBefore, extendStart, levelStart)
		}
	}
	ix.Tau = k
	ix.refreshVerdictStats()
}

// ensurePool grows the filtered option set to the k-skyband of the full
// dataset so that every option that can rank top-k is available.
func (ix *Index) ensurePool(k int) {
	have := make(map[int]bool, len(ix.OrigIDs))
	for _, o := range ix.OrigIDs {
		have[o] = true
	}
	uniq, uniqIDs := dedupeOptions(ix.fullPts)
	for _, fi := range skyline.Skyband(uniq, k) {
		if !have[uniqIDs[fi]] {
			have[uniqIDs[fi]] = true
			ix.Pts = append(ix.Pts, uniq[fi])
			ix.OrigIDs = append(ix.OrigIDs, uniqIDs[fi])
		}
	}
}

// extendResult is the outcome of partitioning one leaf cell during
// ExtendTau: computed in parallel, applied sequentially.
type extendResult struct {
	hadChildren bool // cell was already partitioned; reuse its children
	children    []childSpec
	lpCalls     int64
}

// partitionLeaf partitions one leaf cell into its next-level children using
// the basic candidate computation (pairwise cell dominance with a global
// dominance fast path), mirroring the PBA Partition step. It only reads
// shared index state; the caller materializes the children.
func (ix *Index) partitionLeaf(pid int32) extendResult {
	var res extendResult
	c := &ix.Cells[pid]
	if len(c.Children) > 0 {
		res.hadChildren = true
		return res
	}
	reg := ix.Region(pid)
	r := ix.ResultSet(pid)
	inR := make(map[int32]bool, len(r))
	for _, v := range r {
		inR[v] = true
	}
	// Pool: all known options outside R. Frontier: options with no global
	// dominator in the pool.
	var pool []int32
	for i := range ix.Pts {
		if !inR[int32(i)] {
			pool = append(pool, int32(i))
		}
	}
	var frontier []int32
	for _, v := range pool {
		dominated := false
		for _, u := range pool {
			if u != v && skyline.Dominates(ix.Pts[u], ix.Pts[v]) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, v)
		}
	}
	// Refine with cell-specific dominance tests (memoized on the cell's
	// halfspace-set hash, like the builders).
	var p []int32
	for _, v := range frontier {
		dominated := false
		for _, u := range frontier {
			if u == v {
				continue
			}
			key := dg.VerdictKey{Kind: dg.KindDominates, U: u, V: v, Region: reg.Hash()}
			dom, hit := ix.verdicts.LookupBool(key)
			if !hit {
				res.lpCalls++
				dom = reg.ContainsHalfspace(geom.PrefHalfspace(ix.Pts[u], ix.Pts[v]))
				ix.verdicts.StoreBool(key, dom)
			}
			if dom {
				dominated = true
				break
			}
		}
		if !dominated {
			p = append(p, v)
		}
	}
	r2 := geom.GetRegion()
	defer geom.PutRegion(r2)
	for _, ri := range p {
		r2.CopyFrom(reg)
		bound := make([]int32, 0, len(p)-1)
		for _, rj := range p {
			if rj != ri {
				r2.Add(geom.PrefHalfspace(ix.Pts[ri], ix.Pts[rj]))
				bound = append(bound, rj)
			}
		}
		res.lpCalls++
		if !r2.Feasible() {
			continue
		}
		res.children = append(res.children, childSpec{opt: ri, bound: bound})
	}
	return res
}
