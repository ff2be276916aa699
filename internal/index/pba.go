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
// The stream decides which LPs run, not which cells exist: a sample
// certifies a child only from inside its region (interiorTo), so a child
// too thin for the Chebyshev LP is never kept on a sample's word. The
// 62-bit mask dates from when the seed fed math/rand; the committed build
// hashes are the same with and without it, and the LP counts are not.
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
	witness []float64 // an interior point of the cell
	// samples is the interior sample set, RDim() coordinates per sample
	// back to back (includes nothing by contract).
	samples []float64
}

// childSpec is one feasible child computed by the parallel phase, before
// any cell has been allocated for it.
type childSpec struct {
	opt     int32
	key     string // the child's rKey, for the level's merge
	bound   []int32
	witness []float64
	samples []float64 // as pbaWork.samples
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
// independent, so they fan out over the configured worker pool (above
// d = 2, see buildWorkers); cells and
// edges are then materialized sequentially in input order, which keeps ids
// — and the serialized index — identical for every worker count.
//
// memo is BSL's dominance memo, shared by its scratch builds; every other
// build passes nil (see domMemo).
func buildPBA(ix *Index, plus bool, memo *domMemo) {
	base := dg.NewBase(ix.Pts)
	rootReg := geom.NewRegion(ix.RDim())
	rootCenter, _, ok := rootReg.ChebyshevCenter()
	if !ok {
		return // dim 0 (d=1) is rejected earlier; defensive only
	}
	rootRng := cellSeed(ix.Root(), NoOption)
	rootSamples := make([]float64, sampleCount(ix.RDim())*ix.RDim())
	rootReg.SampleInto(rootSamples, rootCenter, rootRng.Float64)
	cur := []pbaWork{{
		cell:    ix.Root(),
		g:       dg.NewGraph(base),
		witness: rootCenter,
		samples: rootSamples,
	}}
	ix.Levels = make([][]int32, ix.Tau+1)
	ix.Levels[0] = []int32{ix.Root()}
	workers := ix.buildWorkers()
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
		// The children of the last level start no level of their own, so
		// they carry no samples or dominance graphs and are not merged.
		carry := l < ix.Tau-1
		// Parallel compute phase: candidate refinement and feasibility.
		phase := ix.startPhase("build.level.compute")
		results := make([]pbaResult, len(cur))
		pool.ForEach(workers, len(cur), func(i int) {
			results[i] = ix.partitionCompute(&cur[i], plus, int32(l), base, carry, memo)
		})
		ix.endPhase(&phase, l+1)
		// Sequential apply phase: allocate cells and edges in input order.
		phase = ix.startPhase("build.level.apply")
		var sumP, sumActual int
		for i := range results {
			sumActual += len(results[i].children)
		}
		next := make([]pbaWork, 0, sumActual)
		keys := make([]string, 0, sumActual)
		// The new cells' parent lists and the partitioned cells' child
		// lists are windows of two slabs; each window's capacity ends where
		// the next begins, so a later append (a merge) copies it out.
		parentSlab := make([]int32, sumActual)
		childSlab := make([]int32, sumActual)
		for i := range cur {
			wk := &cur[i]
			res := &results[i]
			ix.Stats.LPCalls += res.lpCalls
			sumP += res.pCount
			if c := &ix.Cells[wk.cell]; c.Children == nil {
				c.Children = childSlab[:0:len(res.children)]
			}
			childSlab = childSlab[len(res.children):]
			for _, cs := range res.children {
				parents := parentSlab[:1:1]
				parentSlab = parentSlab[1:]
				parents[0] = wk.cell
				child := ix.newCell(ix.Cells[wk.cell].Level+1, cs.opt, parents, cs.bound)
				ix.addEdge(wk.cell, child)
				keys = append(keys, cs.key)
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
		// graphs, witnesses, and samples.
		phase = ix.startPhase("build.level.merge")
		ids := make([]int32, len(next))
		for i, wk := range next {
			ids[i] = wk.cell
		}
		merged, groupOf := ix.mergeLevel(ids, keys)
		if carry {
			// A group starts as a view of its first work item; a second
			// member's append copies it out (the view's capacity is 1).
			groups := make([][]pbaWork, len(merged))
			for i, g := range groupOf {
				if groups[g] == nil {
					groups[g] = next[i : i+1 : i+1]
				} else {
					groups[g] = append(groups[g], next[i])
				}
			}
			// A cell that merged with none keeps its work item. Each other
			// one depends on its own group only, so the graph merges fan
			// out like the compute phase, each writing its own slot.
			cur = make([]pbaWork, len(merged))
			var multi []int
			for i, g := range groups {
				if len(g) == 1 {
					cur[i] = g[0]
				} else {
					multi = append(multi, i)
				}
			}
			pool.ForEach(workers, len(multi), func(j int) {
				i := multi[j]
				cur[i] = mergeWork(merged[i], groups[i], plus, 2*sampleCount(ix.RDim())*ix.RDim())
			})
		}
		ix.endPhase(&phase, l+1)
		ix.Levels[l+1] = append([]int32(nil), merged...)
		if instrumented {
			ix.reportLevel(l+1, len(merged),
				ix.Stats.LPCalls-lpBefore, buildStart, levelStart)
		}
	}
}

// buildWorkers is the worker bound of the partition builders' level
// phases. On a line (d = 2) a cell's region is an interval and partitions
// in a few µs, so a level is done before a woken worker would start: those
// builds run on the calling goroutine, which on ingest_mixed's rebuilds
// beat fanning out (DESIGN §20). Higher dimensions use every worker.
func (ix *Index) buildWorkers() int {
	if ix.RDim() == 1 {
		return 1
	}
	return ix.workers
}

// mergeWork combines the work items of the cells merged into id: the first
// witness, the sample coordinates of every part up to maxSamples of them,
// and (PBA⁺) the dominance graphs.
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

// reportLevel emits the "build.level" span and the progress callback of
// one level of a partition-based build.
func (ix *Index) reportLevel(level, cells int, lpCalls int64, buildStart, levelStart time.Time) {
	took := time.Since(levelStart)
	if ix.trace != nil {
		sp := obs.Span{Name: "build.level", Start: levelStart}
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
			MaxLevel:    ix.Tau,
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
// work item, so calls for different cells can run concurrently. Without
// carry the children get no samples or dominance graphs.
func (ix *Index) partitionCompute(wk *pbaWork, plus bool, level int32, base *dg.Base, carry bool, memo *domMemo) pbaResult {
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
	sc := partScratches.Get()
	defer partScratches.Put(sc)
	p := computeP(ix, g, reg, level, samples, &res.lpCalls, sc, memo)
	res.pCount = len(p)

	const strictEps = 1e-9
	// For each sample, the strict winner among candidates certifies its own
	// child cell (the sample is an interior witness). witnessOf[i] is the
	// first such sample for p[i].
	witnessOf := slices.Grow(sc.witnessOf[:0], len(p))[:len(p)]
	clear(witnessOf)
	sc.witnessOf = witnessOf
	// PBA⁺'s computeP scored every frontier option at these samples; p[i]
	// is frontier option sc.pos[i], so its scores are read, not recomputed.
	scored := plus && sc.scored
	d := ix.RDim()
	ns := len(wk.samples) / d
	for j := 0; j < ns; j++ {
		s := wk.samples[j*d : (j+1)*d : (j+1)*d]
		best, second := -1, -1
		var bestSc, secondSc float64
		for i, ri := range p {
			var score float64
			if scored {
				score = sc.scores[sc.pos[i]*ns+j]
			} else {
				score = geom.Score(ix.Pts[ri], s)
			}
			if best < 0 || score > bestSc {
				second, secondSc = best, bestSc
				best, bestSc = i, score
			} else if second < 0 || score > secondSc {
				second, secondSc = i, score
			}
		}
		if best >= 0 && (second < 0 || bestSc-secondSc > strictEps) && witnessOf[best] == nil {
			witnessOf[best] = s
		}
	}

	// The children's merge keys extend this cell's sorted result set.
	rset := ix.resultSetInto(wk.cell, sc.rset[:0])
	slices.Sort(rset)
	sc.rset = rset

	row := slices.Grow(sc.row[:0], d)[:d]
	sc.row = row
	childReg := geom.GetRegion()
	defer geom.PutRegion(childReg)
	res.children = make([]childSpec, 0, len(p))
	// The children's bounds, and with carry their samples, are windows of
	// per-cell slabs; each window's capacity ends where the next begins.
	nb, k := max(len(p)-1, 0), sampleCount(d)*d
	boundSlab := make([]int32, len(p)*nb)
	var sampleSlab []float64
	for i, ri := range p {
		bound := boundSlab[i*nb : i*nb : (i+1)*nb]
		for _, rj := range p {
			if rj != ri {
				bound = append(bound, rj)
			}
		}
		witness := witnessOf[i]
		if witness != nil && !ix.interiorTo(reg, ri, bound, witness, row) {
			witness = nil
		}
		if witness != nil && !carry {
			// A sample certifies the child, and nothing needs its region.
			res.children = append(res.children, childSpec{opt: ri, key: childKey(rset, ri), bound: bound, witness: witness})
			continue
		}
		childReg.CopyFrom(reg)
		for _, rj := range bound {
			childReg.AddPref(ix.Pts[ri], ix.Pts[rj])
		}
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
		cs := childSpec{opt: ri, key: childKey(rset, ri), bound: bound, witness: witness}
		if carry {
			if sampleSlab == nil {
				sampleSlab = make([]float64, len(p)*k)
			}
			cs.samples = sampleSlab[i*k : (i+1)*k : (i+1)*k]
			crng := cellSeed(wk.cell, ri)
			childReg.SampleInto(cs.samples, witness, crng.Float64)
		}
		res.children = append(res.children, cs)
	}
	if carry && plus {
		gs := g.Clones(len(res.children))
		for i := range res.children {
			cs := &res.children[i]
			cs.g = &gs[i]
			cs.g.Consume(cs.opt)
		}
	}
	return res
}

// interiorTo reports whether the sample x lies inside the child region of
// candidate ri — the cell's region cut by H⁺(ri, rj) for every rj in bound —
// by more than geom.InteriorEps, the margin Feasible asks of a witness.
// Winning at a sample is not enough: a merged cell carries the samples of
// all of its parts, and one where the candidate wins can lie outside the
// child region, which then may be empty. row is scratch of length RDim.
func (ix *Index) interiorTo(reg *geom.Region, ri int32, bound []int32, x, row []float64) bool {
	for _, h := range reg.HS {
		if h.Eval(x) >= -geom.InteriorEps {
			return false
		}
	}
	for _, rj := range bound {
		if geom.PrefHalfspaceInto(row, ix.Pts[ri], ix.Pts[rj]).Eval(x) >= -geom.InteriorEps {
			return false
		}
	}
	return true
}

// computeP returns a superset of the options that can rank top-(ℓ+1) for
// some weight in the cell (Corollary 1 candidates). It starts from the
// dominance-graph frontier (in-degree-0 pool nodes) and refines it with
// cell-specific dominance tests; every confirmed dominance becomes a graph
// edge, which PBA⁺ children inherit. Dead options (dominator count above
// τ−ℓ−1) are dropped from the pool permanently. An LP containment test for
// "u dominates v in this cell" runs only when no interior sample already
// refutes it, no edge already answers it, and memo (nil outside BSL) holds
// no verdict for it. LP invocations are tallied into lpCalls (not the
// shared Stats), so the caller can run many computeP calls concurrently.
func computeP(ix *Index, g *dg.Graph, reg *geom.Region, level int32, samples []float64, lpCalls *int64, sc *partScratch, memo *domMemo) []int32 {
	threshold := int32(ix.Tau) - level - 1
	g.DropAbove(threshold)
	frontier := g.AppendFrontier(sc.frontier[:0])
	sc.frontier = frontier
	sc.scored = false
	if len(frontier) <= 1 {
		return frontier
	}
	// Score every frontier option at every sample once: row i of scores
	// holds frontier[i]'s, and the refutation test reads a pair's rows.
	d := ix.RDim()
	ns := len(samples) / d
	scores := slices.Grow(sc.scores[:0], len(frontier)*ns)[:len(frontier)*ns]
	sc.scores = scores
	for i, v := range frontier {
		for j := 0; j < ns; j++ {
			scores[i*ns+j] = geom.Score(ix.Pts[v], samples[j*d:(j+1)*d])
		}
	}
	sc.scored = true
	// The edges found are added after the pass. Within it an edge u→v only
	// ever raises the count of the v under test, from 0 as every frontier
	// option's is, so covered answers what the counts would.
	out := sc.out[:0]
	row := slices.Grow(sc.row[:0], ix.RDim())[:ix.RDim()]
	covered := slices.Grow(sc.covered[:0], len(frontier))[:len(frontier)]
	clear(covered)
	us, vs := sc.us[:0], sc.vs[:0]
	pos := sc.pos[:0]
	defer func() { sc.out, sc.pos, sc.row, sc.covered, sc.us, sc.vs = out, pos, row, covered, us, vs }()
	for i, v := range frontier {
		sv := scores[i*ns : (i+1)*ns]
		for j, u := range frontier {
			if u == v || covered[j] {
				continue
			}
			if refutes(sv, scores[j*ns:(j+1)*ns]) {
				continue
			}
			if g.HasEdge(u, v) || g.HasEdge(v, u) {
				continue
			}
			dom, hit := memo.lookup(u, v, reg)
			if !hit {
				*lpCalls++
				dom = reg.ContainsHalfspace(geom.PrefHalfspaceInto(row, ix.Pts[u], ix.Pts[v]))
				memo.store(u, v, reg, dom)
			}
			if dom {
				us, vs = append(us, u), append(vs, v)
				covered[i] = true
				break
			}
		}
		if !covered[i] {
			out = append(out, v)
			pos = append(pos, i)
		}
	}
	g.AddEdges(us, vs)
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

// partScratch is the working memory of one partitionCompute call, recycled
// across calls: computeP's frontier, frontier×sample score matrix (scored
// says it was filled), halfspace row, covered flags, found edges, output
// and each output's frontier position, the cell's sorted result set, and
// the sample witness of each candidate. computeP's result lives in it.
type partScratch struct {
	frontier, out, us, vs []int32
	pos                   []int
	scores, row           []float64
	scored                bool
	covered               []bool
	rset                  []int32
	witnessOf             [][]float64
}

var partScratches = pool.NewScratch(func() *partScratch { return new(partScratch) })
