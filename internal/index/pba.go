package index

import (
	"slices"
	"time"

	"tlevelindex/internal/dg"
	"tlevelindex/internal/geom"
	"tlevelindex/internal/obs"
	"tlevelindex/internal/pool"
)

// sampleCount sizes the interior sample set carried with every active cell
// during partition-based construction. Samples provide cheap certificates:
// a sample where v outscores u refutes "u dominates v in this cell" without
// an LP, and a sample where a candidate outscores every other candidate
// witnesses child feasibility without an LP. Higher dimensions need more
// samples for the certificates to fire.
func sampleCount(dim int) int { return 8 + 6*dim }

// cellSeed derives the deterministic seed of the sample stream of the
// child cell created under parent for candidate opt. Keying the stream on
// (parent id, option) rather than drawing from one shared sequential RNG is
// what keeps parallel builds reproducible: cell ids are assigned in the
// sequential apply phase, so the seed — and hence every sample — is the
// same for any worker count.
//
// The stream is part of the index's identity on degenerate input: a child
// too thin for the Chebyshev LP (radius below its threshold) is kept only
// when a sample certifies it. The 62-bit mask dates from when the seed fed
// math/rand; with it the splitmix stream builds the same indexes, bit for
// bit, and without it IND n=8000, d=4, τ=6 builds a different one.
func cellSeed(parent, opt int32) splitmix {
	h := uint64(uint32(parent))<<32 | uint64(uint32(opt))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return splitmix(h & (1<<62 - 1))
}

// splitmix is a splitmix64 stream (Steele, Lea and Flood, 2014). Its whole
// state is one word, so a child's stream costs nothing to seed; every
// candidate child of every cell draws its ~30 samples from a fresh one.
type splitmix uint64

// Float64 returns the next draw, uniform in [0, 1).
func (s *splitmix) Float64() float64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return float64((z^z>>31)>>11) / (1 << 53)
}

// pbaWork is the per-active-cell state of the partition-based builders.
type pbaWork struct {
	cell    int32
	g       *dg.Graph
	witness []float64   // an interior point of the cell
	samples [][]float64 // interior sample set (includes nothing by contract)
}

// childSpec is one feasible child computed by the parallel phase, before
// any cell has been allocated for it.
type childSpec struct {
	opt     int32
	bound   []int32
	witness []float64
	samples [][]float64
	g       *dg.Graph // nil unless PBA⁺
}

// pbaResult is the outcome of partitioning one cell: computed in parallel,
// applied sequentially.
type pbaResult struct {
	pCount   int // |P| after refinement (stats)
	children []childSpec
	lpCalls  int64
}

// buildPBA constructs the index level by level (Algorithm 2). With
// plus=true it is PBA⁺: each cell carries a dominance graph inherited from
// its parent (Lemma 4), pruned by dominator counts, and merged alongside
// cell merges (§6.3). With plus=false it is basic PBA: the candidate
// r-skyband is recomputed from scratch for every cell, which repeats the
// LP dominance tests that PBA⁺ memoizes as graph edges.
//
// Within a level every cell's candidate refinement and feasibility LPs are
// independent, so they fan out over the configured worker pool; cells and
// edges are then materialized sequentially in input order, which keeps ids
// — and the serialized index — identical for every worker count.
func buildPBA(ix *Index, plus bool) {
	base := dg.NewBase(ix.Pts)
	rootReg := geom.NewRegion(ix.RDim())
	rootCenter, _, ok := rootReg.ChebyshevCenter()
	if !ok {
		return // dim 0 (d=1) is rejected earlier; defensive only
	}
	rootRng := cellSeed(ix.Root(), NoOption)
	cur := []pbaWork{{
		cell:    ix.Root(),
		g:       dg.NewGraph(base),
		witness: rootCenter,
		samples: rootReg.SampleFrom(rootCenter, sampleCount(ix.RDim()), rootRng.Float64),
	}}
	ix.Levels = make([][]int32, ix.Tau+1)
	ix.Levels[0] = []int32{ix.Root()}
	ix.Stats.PostFilterCandidates = make([]float64, ix.Tau)
	ix.Stats.ActualCandidates = make([]float64, ix.Tau)

	// Per-level observability: spans and cells/sec progress, both off (and
	// unstamped — no clock reads) unless a hook is attached.
	instrumented := ix.trace != nil || ix.progress != nil
	var buildStart, levelStart time.Time
	if instrumented {
		buildStart = time.Now()
	}

	for l := 0; l < ix.Tau; l++ {
		if instrumented {
			levelStart = time.Now()
		}
		lpBefore := ix.Stats.LPCalls
		// Parallel compute phase: candidate refinement and feasibility.
		phase := ix.startPhase("build.level.compute")
		results := make([]pbaResult, len(cur))
		pool.ForEach(ix.workers, len(cur), func(i int) {
			results[i] = ix.partitionCompute(&cur[i], plus, int32(l), base)
		})
		ix.endPhase(&phase, l+1)
		// Sequential apply phase: allocate cells and edges in input order.
		phase = ix.startPhase("build.level.apply")
		var next []pbaWork
		var sumP, sumActual int
		for i := range cur {
			wk := &cur[i]
			res := &results[i]
			ix.Stats.LPCalls += res.lpCalls
			sumP += res.pCount
			sumActual += len(res.children)
			for _, cs := range res.children {
				child := ix.newCell(ix.Cells[wk.cell].Level+1, cs.opt, []int32{wk.cell}, cs.bound)
				ix.addEdge(wk.cell, child)
				next = append(next, pbaWork{
					cell: child, g: cs.g, witness: cs.witness, samples: cs.samples,
				})
			}
		}
		if len(cur) > 0 {
			ix.Stats.PostFilterCandidates[l] = float64(sumP) / float64(len(cur))
			ix.Stats.ActualCandidates[l] = float64(sumActual) / float64(len(cur))
		}
		ix.endPhase(&phase, l+1)
		// Merge children with identical (R, opt), merging their dominance
		// graphs, witnesses, and samples. Keys are computed before merging:
		// tombstoned cells lose their parent chains.
		phase = ix.startPhase("build.level.merge")
		ids := make([]int32, len(next))
		byKey := make(map[string][]pbaWork, len(next))
		for i, wk := range next {
			ids[i] = wk.cell
			k := ix.rKey(wk.cell)
			byKey[k] = append(byKey[k], wk)
		}
		merged := ix.mergeLevel(ids)
		groups := make([][]pbaWork, len(merged))
		for i, id := range merged {
			groups[i] = byKey[ix.rKey(id)]
		}
		// Each merged cell's work item depends on its own group only, so
		// the graph merges fan out like the compute phase, each writing
		// its own slot.
		cur = make([]pbaWork, len(merged))
		pool.ForEach(ix.workers, len(merged), func(i int) {
			cur[i] = mergeWork(merged[i], groups[i], plus, 2*sampleCount(ix.RDim()))
		})
		ix.endPhase(&phase, l+1)
		ix.Levels[l+1] = append([]int32(nil), merged...)
		if instrumented {
			ix.reportLevel("build.level", l+1, ix.Tau, len(merged),
				ix.Stats.LPCalls-lpBefore, buildStart, levelStart)
		}
	}
}

// mergeWork combines the work items of the cells merged into id: the first
// witness, the samples of every part up to maxSamples, and (PBA⁺) the
// dominance graphs.
func mergeWork(id int32, group []pbaWork, plus bool, maxSamples int) pbaWork {
	wk := group[0]
	wk.cell = id
	if len(group) == 1 {
		return wk
	}
	wk.samples = nil
	for _, m := range group {
		wk.samples = append(wk.samples, m.samples...)
	}
	if len(wk.samples) > maxSamples {
		wk.samples = wk.samples[:maxSamples]
	}
	if plus {
		graphs := make([]*dg.Graph, len(group))
		for i, m := range group {
			graphs[i] = m.g
		}
		wk.g = dg.Merge(graphs...)
	}
	return wk
}

// startPhase begins the span of one phase of a build level. Without a
// tracer it returns the zero span and reads no clock.
func (ix *Index) startPhase(name string) obs.Span {
	if ix.trace == nil {
		return obs.Span{}
	}
	return obs.StartSpan(name)
}

// endPhase delivers a span begun by startPhase, tagged with its level.
func (ix *Index) endPhase(sp *obs.Span, level int) {
	if ix.trace == nil {
		return
	}
	sp.Set("level", float64(level))
	sp.FinishTo(ix.trace)
}

// reportLevel emits the per-level span and progress callback shared by the
// partition builders and ExtendTau.
func (ix *Index) reportLevel(spanName string, level, maxLevel, cells int, lpCalls int64, buildStart, levelStart time.Time) {
	took := time.Since(levelStart)
	if ix.trace != nil {
		sp := obs.Span{Name: spanName, Start: levelStart}
		sp.Set("level", float64(level))
		sp.Set("cells", float64(cells))
		sp.Set("lpCalls", float64(lpCalls))
		sp.FinishTo(ix.trace)
	}
	if ix.progress != nil {
		cps := 0.0
		if s := took.Seconds(); s > 0 {
			cps = float64(cells) / s
		}
		ix.progress(BuildProgress{
			Algorithm:   ix.Stats.Algorithm,
			Level:       level,
			MaxLevel:    maxLevel,
			LevelCells:  cells,
			Elapsed:     time.Since(buildStart),
			CellsPerSec: cps,
		})
	}
}

// partitionCompute implements the Partition routine of Algorithm 2 for one
// cell without touching shared index state: every candidate in P that can
// rank next somewhere in the cell becomes a childSpec. Feasibility is
// certified by an interior sample where the candidate strictly outscores
// every other candidate when possible, and by a Chebyshev LP otherwise. It
// only reads ix (cells, points, regions) and mutates data owned by this
// work item, so calls for different cells can run concurrently.
func (ix *Index) partitionCompute(wk *pbaWork, plus bool, level int32, base *dg.Base) pbaResult {
	var res pbaResult
	reg := ix.RegionInto(wk.cell, geom.GetRegion())
	defer geom.PutRegion(reg)
	// Arm the region's witness fast paths with the interior point the work
	// item already carries; SetWitness computes the exact slack, so a stale
	// witness (possible after cell merges) simply leaves the fast paths cold.
	reg.SetWitness(wk.witness)
	var g *dg.Graph
	if plus {
		g = wk.g
	} else {
		// Basic PBA: rebuild the per-cell dominance state from the
		// global base, re-consuming R — the "expensive r-skyband
		// function call for each cell" that PBA⁺ avoids.
		g = dg.NewGraph(base)
		for _, r := range ix.ResultSet(wk.cell) {
			g.Consume(r)
		}
	}
	// Basic PBA's r-skyband subroutine is a generic pairwise pass
	// with no sample certificates and no memoized edges — the cost
	// PBA⁺ exists to avoid (§6.1 Observation II).
	samples := wk.samples
	if !plus {
		samples = nil
	}
	p := computeP(ix, g, reg, level, samples, &res.lpCalls)
	res.pCount = len(p)

	const strictEps = 1e-9
	// For each sample, the strict winner among candidates certifies its own
	// child cell (the sample is an interior witness). witnessOf[i] is the
	// first such sample for p[i].
	witnessOf := make([][]float64, len(p))
	for _, s := range wk.samples {
		best, second := -1, -1
		var bestSc, secondSc float64
		for i, ri := range p {
			sc := geom.Score(ix.Pts[ri], s)
			if best < 0 || sc > bestSc {
				second, secondSc = best, bestSc
				best, bestSc = i, sc
			} else if second < 0 || sc > secondSc {
				second, secondSc = i, sc
			}
		}
		if best >= 0 && (second < 0 || bestSc-secondSc > strictEps) && witnessOf[best] == nil {
			witnessOf[best] = s
		}
	}

	childReg := geom.GetRegion()
	defer geom.PutRegion(childReg)
	for i, ri := range p {
		bound := make([]int32, 0, len(p)-1)
		for _, rj := range p {
			if rj != ri {
				bound = append(bound, rj)
			}
		}
		childReg.CopyFrom(reg)
		for _, rj := range bound {
			childReg.AddPref(ix.Pts[ri], ix.Pts[rj])
		}
		witness := witnessOf[i]
		if witness == nil {
			var ok bool
			res.lpCalls++
			witness, _, ok = childReg.ChebyshevCenter()
			if !ok {
				continue // infeasible candidate
			}
			// ChebyshevCenter hands back region-owned memory; the childSpec
			// outlives the scratch region, so take a copy.
			witness = append([]float64(nil), witness...)
		}
		crng := cellSeed(wk.cell, ri)
		cs := childSpec{
			opt: ri, bound: bound, witness: witness,
			samples: childReg.SampleFrom(witness, sampleCount(ix.RDim()), crng.Float64),
		}
		if plus {
			cs.g = g.Clone()
			cs.g.Consume(ri)
		}
		res.children = append(res.children, cs)
	}
	return res
}

// computeP returns a superset of the options that can rank top-(ℓ+1) for
// some weight in the cell (Corollary 1 candidates). It starts from the
// dominance-graph frontier (in-degree-0 pool nodes) and refines it with
// cell-specific dominance tests; every confirmed dominance becomes a graph
// edge, which PBA⁺ children inherit. Dead options (dominator count above
// τ−ℓ−1) are dropped from the pool permanently. An LP containment test for
// "u dominates v in this cell" runs only when no interior sample already
// refutes it. LP invocations are tallied into lpCalls (not the shared
// Stats), so the caller can run many computeP calls concurrently.
func computeP(ix *Index, g *dg.Graph, reg *geom.Region, level int32, samples [][]float64, lpCalls *int64) []int32 {
	threshold := int32(ix.Tau) - level - 1
	g.DropAbove(threshold)
	frontier := g.Frontier()
	if len(frontier) <= 1 {
		return frontier
	}
	// Score every frontier option at every sample once: row i of scores
	// holds frontier[i]'s, and the refutation test reads a pair's rows.
	ns := len(samples)
	buf := scoreScratch.Get()
	defer scoreScratch.Put(buf)
	scores := slices.Grow((*buf)[:0], len(frontier)*ns)[:len(frontier)*ns]
	*buf = scores
	for i, v := range frontier {
		for j, s := range samples {
			scores[i*ns+j] = geom.Score(ix.Pts[v], s)
		}
	}
	out := make([]int32, 0, len(frontier))
	for i, v := range frontier {
		if g.Count(v) > 0 {
			continue // an edge added earlier in this loop already covers v
		}
		dominated := false
		sv := scores[i*ns : (i+1)*ns]
		for j, u := range frontier {
			if u == v || g.Count(u) > 0 {
				continue
			}
			if g.HasEdge(u, v) || g.HasEdge(v, u) {
				continue
			}
			if refutes(sv, scores[j*ns:(j+1)*ns]) {
				continue
			}
			key := dg.VerdictKey{Kind: dg.KindDominates, U: u, V: v, Region: reg.Hash()}
			dom, hit := ix.verdicts.LookupBool(key)
			if !hit {
				*lpCalls++
				dom = reg.ContainsHalfspace(geom.PrefHalfspace(ix.Pts[u], ix.Pts[v]))
				ix.verdicts.StoreBool(key, dom)
			}
			if dom {
				g.AddEdge(u, v)
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, v)
		}
	}
	return out
}

// refutes reports whether some sample scores v (scores sv) above u (scores
// su): a sample where v wins refutes "u dominates v in this cell".
func refutes(sv, su []float64) bool {
	for s, x := range sv {
		if x > su[s]+1e-12 {
			return true
		}
	}
	return false
}

// scoreScratch recycles computeP's frontier×sample score matrix.
var scoreScratch = pool.NewScratch(func() *[]float64 {
	s := make([]float64, 0, 1024)
	return &s
})
