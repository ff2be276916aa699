package index

import (
	"tlevelindex/internal/dg"
	"tlevelindex/internal/geom"
	"tlevelindex/internal/pool"
)

// buildIBA is the insertion-based approach (Algorithm 1): options are
// inserted one at a time in the given order; each cell the insertion
// reaches classifies the new option's hyperplane against its region
// (Case I / II / III) and the DAG is grown, split, or shifted accordingly,
// with a merge pass after every insertion.
//
// Cell regions during construction follow Definition 2 over the options
// inserted so far. Because regions are implicit, a split (Case III) leaves
// the original cell representing the "old option still wins" side
// automatically, while the "new option wins" side gets a fresh rank-ℓ cell
// plus a feasibility-pruned clone of the old cell's sub-DAG shifted one
// level down. Case II is the degenerate split whose "old option wins" side
// is empty, so the original sub-DAG is deleted outright.
func buildIBA(ix *Index, order []int) {
	ix.Stats.PostFilterCandidates = make([]float64, ix.Tau)
	ix.Stats.ActualCandidates = make([]float64, ix.Tau)
	st := &ibaState{ix: ix, verdicts: ix.verdicts}
	for _, oi := range order {
		st.begin(int32(oi))
		st.insert(ix.Root())
		st.inserted = append(st.inserted, st.rj)
		st.mergeCreated()
	}
	ix.fixupEdges(newInsertCache())
	ix.rebuildLevels()
}

// fixupEdges rewrites the DAG edges to exactly the Definition-4 relation.
// The insertion-based builder links structurally (splits inherit every
// parent, merges union parents), but cell regions are implicit and keep
// shrinking as later options arrive, so creation-time edges can end up
// both over- and under-approximating the final geometry. The candidate
// parents of a cell are precisely the cells whose result set equals the
// child's prefix (its R minus its own option); each candidate is settled
// with one full-dimensional intersection test.
//
// Within a level, each cell's parent determination only consults cells of
// the level below (already settled), so the intersection LPs fan out over
// the worker pool; tombstoning and parent assignment are then applied
// sequentially in slice order.
//
// Regions and intersection outcomes come through ic (see insertCache):
// Definition-2 regions of Bound-free cells and bounded regions of
// Bound-carrying ones advance incrementally instead of rebuilding from
// scratch, and parent-intersection outcomes are carried across rounds as
// monotone certificates. Every shortcut reproduces the exact decision a scan
// through an empty cache makes, so the resulting DAG is identical either
// way; the builder passes an empty one.
func (ix *Index) fixupEdges(ic *insertCache) {
	ic.grow(len(ix.Cells))
	clear(ic.byKey)
	ic.groups = ic.groups[:0]
	for len(ic.perLevel) <= ix.Tau {
		ic.perLevel = append(ic.perLevel, nil)
	}
	for l := range ic.perLevel {
		ic.perLevel[l] = ic.perLevel[l][:0]
	}
	ic.ids = ic.ids[:0]
	for i := range ix.Cells {
		c := &ix.Cells[i]
		e := &ic.cells[i]
		if c.Level < 1 {
			e.group = -1
			continue
		}
		ic.rbuf = ix.resultSetInto(c.ID, ic.rbuf)
		if e.key == "" || !int32sEqual(e.r, ic.rbuf) {
			// A changed result set invalidates every certificate the cell
			// participates in; regions are validated separately against the
			// exact sequence, so the set-canonical key suffices here.
			e.r = append(e.r[:0], ic.rbuf...)
			ic.keyBuf = appendSetKey(ic.keyBuf[:0], e.r)
			if string(ic.keyBuf) != e.key {
				e.gen++
				e.key = string(ic.keyBuf)
			}
		}
		g, ok := ic.byKey[e.key]
		if !ok {
			g = ic.newGroup()
			ic.byKey[e.key] = g
		}
		e.group = g
		ic.groups[g] = append(ic.groups[g], c.ID)
		ic.perLevel[c.Level] = append(ic.perLevel[c.Level], c.ID)
		ic.ids = append(ic.ids, c.ID)
	}
	// Bring every cell's region up to date, in parallel; each goroutine
	// writes only its own entry. Parent chains stay untouched until the
	// rewiring at the end, so these regions match what lazy reassembly
	// would have produced. Bound-carrying cells use the (cheap) bounded
	// form; Bound-free cells are the O(options) Definition-2 case.
	pool.ForEach(ix.workers, len(ic.ids), func(i int) {
		id := ic.ids[i]
		e := &ic.cells[id]
		if ix.Cells[id].Bound == nil {
			e.reg, e.reused = ix.advanceRegion(&e.def2, id, e.r, len(ix.Pts))
		} else {
			e.reg, e.reused = ix.advanceBounded(&e.bounded, id, e.r)
		}
	})
	for _, id := range ic.ids {
		if ic.cells[id].reused {
			ic.regionsReused++
		} else {
			ic.regionsRebuilt++
		}
	}
	// Compute the exact parent set of every cell, ascending by level so that
	// cells whose regions turn out empty are tombstoned before they can act
	// as parents. Result sets were captured above, so rewiring edges
	// afterwards cannot corrupt them.
	for l := 1; l <= ix.Tau; l++ {
		ids := ic.perLevel[l]
		if l == 1 {
			for _, id := range ids {
				e := &ic.cells[id]
				e.parents = append(e.parents[:0], ix.Root())
			}
			continue
		}
		pool.ForEach(ix.workers, len(ids), func(i int) { ix.scanParents(ic, ids[i]) })
		for _, id := range ids {
			e := &ic.cells[id]
			ix.Stats.LPCalls += e.scan.lpCalls
			ic.pairLPs += e.scan.pairLPs
			ic.pairSkips += e.scan.skips
			if len(e.parents) > 0 {
				continue
			}
			// No full-dimensional parent intersection. Either the cell's
			// own region is empty (a stale structural leftover — drop
			// it), or everything is degenerate within tolerance (keep
			// the best boundary-touching parent so paths stay intact).
			if e.scan.fallback < 0 {
				ix.Cells[id].Level = -1
				continue
			}
			e.parents = append(e.parents, e.scan.fallback)
		}
	}
	// Rewire. Candidates are scanned in ascending id order and cells are
	// visited in ascending id order here, so both lists come out sorted and
	// free of duplicates without a pass over them.
	for i := range ix.Cells {
		if c := &ix.Cells[i]; c.Level >= 0 {
			c.Children = c.Children[:0]
		}
	}
	for i := range ix.Cells {
		c := &ix.Cells[i]
		if c.Level < 1 {
			continue
		}
		c.Parents = append(c.Parents[:0], ic.cells[i].parents...)
		for _, p := range c.Parents {
			ix.Cells[p].Children = append(ix.Cells[p].Children, c.ID)
		}
	}
}

// scanParents settles the parents of cell id, a cell of level two or
// deeper, into its cache entry. Its candidates are the cells sharing the
// result set of its first parent: the cell's result sequence is that
// parent's plus its own option, so that set is the child's prefix.
func (ix *Index) scanParents(ic *insertCache, id int32) {
	e := &ic.cells[id]
	e.scan = scanResult{fallback: -1}
	var cands []int32
	if g := ic.cells[ix.Cells[id].Parents[0]].group; g >= 0 {
		cands = ic.groups[g]
	}
	if !ix.certScan(ic, id, cands) {
		ix.exactScan(ic, id, cands)
	}
}

// exactScan is the reference computation: one full intersection LP per
// live candidate, plus the empty-or-degenerate check when none passes.
func (ix *Index) exactScan(ic *insertCache, id int32, cands []int32) {
	e := &ic.cells[id]
	e.parents = e.parents[:0]
	e.scan.fallback = -1
	var fallbackMargin float64
	comb := geom.GetRegion()
	defer geom.PutRegion(comb)
	for _, p := range cands {
		if ix.Cells[p].Level < 0 {
			continue // parent was tombstoned
		}
		comb.CopyFrom(e.reg)
		comb.Add(ic.cells[p].reg.HS...)
		e.scan.lpCalls++
		e.scan.pairLPs++
		if m, ok := comb.FeasibleMargin(); ok {
			if m > geom.InteriorEps {
				e.parents = append(e.parents, p)
			} else if e.scan.fallback < 0 || m > fallbackMargin {
				e.scan.fallback, fallbackMargin = p, m
			}
		}
	}
	if len(e.parents) == 0 {
		// No full-dimensional parent intersection: decide between
		// dropping the cell and keeping its best boundary parent.
		e.scan.lpCalls++
		if !e.reg.Feasible() {
			e.scan.fallback = -1
		}
	}
}

// certScan settles candidates through the pair certificates. Regions only
// shrink while generations hold, so a failed pair is skipped outright and a
// passed pair re-verifies its witness against only the halfspaces appended
// since the last full LP. ok=false means the fallback bookkeeping is
// incomplete (candidates were skipped yet no parent emerged — a rare case
// that needs exact margins); the caller must then run exactScan, which
// reproduces the reference decision.
func (ix *Index) certScan(ic *insertCache, id int32, cands []int32) (ok bool) {
	e := &ic.cells[id]
	e.parents = e.parents[:0]
	var fallbackMargin float64
	cGen := e.gen
	nc := len(e.reg.HS)
	skipped := false
	comb := geom.GetRegion()
	defer geom.PutRegion(comb)
	for _, p := range cands {
		if ix.Cells[p].Level < 0 {
			continue // parent was tombstoned
		}
		pe := &ic.cells[p]
		pGen := pe.gen
		np := len(pe.reg.HS)
		ps := e.pair(p)
		if ps.cGen == cGen && ps.pGen == pGen {
			if ps.failed {
				// Monotone: the margin was ≤ InteriorEps (or the
				// intersection empty) and regions have only shrunk.
				skipped = true
				e.scan.skips++
				continue
			}
			if len(ps.w) > 0 && ps.nc <= nc && ps.np <= np {
				// Witness re-verification: the constraint prefixes are
				// stable while generations hold, so the cached slack
				// only needs tightening by the appended halfspaces.
				s := ps.slack
				for _, h := range e.reg.HS[ps.nc:nc] {
					if v := -h.Eval(ps.w); v < s {
						s = v
					}
				}
				for _, h := range pe.reg.HS[ps.np:np] {
					if v := -h.Eval(ps.w); v < s {
						s = v
					}
				}
				if s > geom.InteriorEps {
					// The witness is still strictly interior: the true
					// margin is ≥ s, the same verdict the LP would give.
					ps.slack, ps.nc, ps.np = s, nc, np
					e.parents = append(e.parents, p)
					e.scan.skips++
					continue
				}
				// Witness cut off — margin unknown, rerun the LP below.
			}
		}
		comb.CopyFrom(e.reg)
		comb.Add(pe.reg.HS...)
		e.scan.lpCalls++
		e.scan.pairLPs++
		ps.cGen, ps.pGen, ps.failed, ps.w = cGen, pGen, true, ps.w[:0]
		if m, ok := comb.FeasibleMargin(); ok {
			if m > geom.InteriorEps {
				e.parents = append(e.parents, p)
				if w, s, wok := comb.WitnessSlack(); wok {
					ps.failed = false
					ps.w = append(ps.w[:0], w...)
					ps.slack, ps.nc, ps.np = s, nc, np
				} else {
					// Passed without a usable certificate: leave the
					// pair unknown so the next round reruns the LP.
					ps.cGen = cGen - 1
				}
			} else if e.scan.fallback < 0 || m > fallbackMargin {
				e.scan.fallback, fallbackMargin = p, m
			}
		}
	}
	if len(e.parents) == 0 {
		if skipped {
			return false
		}
		e.scan.lpCalls++
		if !e.reg.Feasible() {
			e.scan.fallback = -1
		}
	}
	return true
}

func (ix *Index) unlinkEdge(parent, child int32) {
	p := &ix.Cells[parent]
	out := p.Children[:0]
	for _, v := range p.Children {
		if v != child {
			out = append(out, v)
		}
	}
	p.Children = out
	ch := &ix.Cells[child]
	po := ch.Parents[:0]
	for _, v := range ch.Parents {
		if v != parent {
			po = append(po, v)
		}
	}
	ch.Parents = po
}

// ibaState is the insertion machinery's state. One value serves every
// record of a build or of an index's inserts: begin starts the next round
// and the scratch below is reused.
type ibaState struct {
	ix       *Index
	rj       int32
	inserted []int32 // options inserted before rj (the builder's universe)
	// firstNew is the id the first cell born in this round takes. Cells are
	// only ever appended, so a cell was created this round — it already
	// accounts for rj, counts as visited, and must never be cloned into an
	// rj-shifted sub-DAG — exactly when its id is at least firstNew.
	firstNew int32
	// visited[id] == epoch marks an older cell the traversal has reached
	// this round.
	visited []uint32
	epoch   uint32
	// verdicts memoizes classification and feasibility LPs on the region
	// hash: the build's cache for the builder, a per-record one for inserts.
	verdicts *dg.VerdictCache
	// cache, when non-nil (inserts into a built index), carries
	// Definition-2 regions across records so they advance by appending
	// instead of rebuilding. Requires the inserted universe to be the
	// ascending prefix [0, rj) of the options, which appending guarantees.
	cache *insertCache

	// stack holds the adjacency snapshots of the recursion's live frames:
	// a frame iterates a copy of a list the calls below it edit.
	stack   []int32
	memo    map[int32]int32 // cloneUnder's old cell → clone, per split
	byLevel [][]int32       // mergeCreated
	rbuf    []int32
}

// begin starts the insertion round of option rj.
func (st *ibaState) begin(rj int32) {
	st.rj = rj
	st.firstNew = int32(len(st.ix.Cells))
	st.epoch++
	if n := len(st.ix.Cells); n > len(st.visited) {
		st.visited = append(st.visited, make([]uint32, n-len(st.visited))...)
	}
}

func (st *ibaState) created(id int32) bool { return id >= st.firstNew }

// mergeCreated merges duplicate (R, opt) cells level by level, ascending.
// Only cells born this round can be duplicates: each has rj in its result
// set, no older cell does, and the older cells were merged when their own
// rounds ended.
func (st *ibaState) mergeCreated() {
	ix := st.ix
	for len(st.byLevel) <= ix.Tau {
		st.byLevel = append(st.byLevel, nil)
	}
	for l := range st.byLevel {
		st.byLevel[l] = st.byLevel[l][:0]
	}
	for i := int(st.firstNew); i < len(ix.Cells); i++ {
		c := &ix.Cells[i]
		if c.Level >= 1 && int(c.Level) <= ix.Tau {
			st.byLevel[c.Level] = append(st.byLevel[c.Level], c.ID)
		}
	}
	for l := 1; l <= ix.Tau; l++ {
		if len(st.byLevel[l]) > 1 {
			ix.mergeLevel(st.byLevel[l])
		}
	}
}

// regionOver builds the Definition-2 region of a cell with respect to the
// inserted-so-far universe, optionally counting rj as inserted (withRJ).
func (st *ibaState) regionOver(id int32, withRJ bool) *geom.Region {
	ix := st.ix
	c := &ix.Cells[id]
	if st.cache != nil && c.Opt != NoOption {
		// The inserted options are [0, rj), so the two universes are the
		// ascending prefixes Pts[:rj] and Pts[:rj+1]; the cached region
		// advances to either by appending, in exactly the constraint order
		// the uncached build below would produce.
		target := int(st.rj)
		if withRJ {
			target++
		}
		st.rbuf = ix.resultSetInto(id, st.rbuf)
		st.cache.grow(len(ix.Cells))
		reg, reused := ix.advanceRegion(&st.cache.cells[id].def2, id, st.rbuf, target)
		if reused {
			st.cache.regionsReused++
		} else {
			st.cache.regionsRebuilt++
		}
		return reg
	}
	reg := geom.NewRegion(ix.RDim())
	if c.Opt == NoOption {
		return reg
	}
	r := ix.ResultSet(id)
	inR := make(map[int32]bool, len(r))
	for _, j := range r {
		inR[j] = true
	}
	opt := ix.Pts[c.Opt]
	for _, j := range r[:len(r)-1] {
		reg.Add(geom.PrefHalfspace(ix.Pts[j], opt))
	}
	for _, q := range st.inserted {
		if !inR[q] {
			reg.Add(geom.PrefHalfspace(opt, ix.Pts[q]))
		}
	}
	if withRJ && !inR[st.rj] {
		reg.Add(geom.PrefHalfspace(opt, ix.Pts[st.rj]))
	}
	return reg
}

// snapshot pushes a copy of list onto the stack and returns its bounds;
// the caller indexes st.stack[lo:hi] (the slice itself may move under the
// calls it makes) and pops with st.stack = st.stack[:lo].
func (st *ibaState) snapshot(list []int32) (lo, hi int) {
	lo = len(st.stack)
	st.stack = append(st.stack, list...)
	return lo, len(st.stack)
}

// insertBelow continues the insertion into id's live children, or — at a
// leaf above level τ — makes rj the next-ranked option there.
func (st *ibaState) insertBelow(id int32) {
	ix := st.ix
	c := &ix.Cells[id]
	if len(c.Children) == 0 {
		if int(c.Level)+1 <= ix.Tau {
			ix.addEdge(id, ix.newCell(c.Level+1, st.rj, nil, nil))
		}
		return
	}
	lo, hi := st.snapshot(c.Children)
	for i := lo; i < hi; i++ {
		if ch := st.stack[i]; ix.Cells[ch].Level >= 0 {
			st.insert(ch)
		}
	}
	st.stack = st.stack[:lo]
}

func (st *ibaState) insert(id int32) {
	ix := st.ix
	if st.created(id) || st.visited[id] == st.epoch {
		return
	}
	st.visited[id] = st.epoch
	c := &ix.Cells[id]
	if c.Level < 0 {
		return
	}
	if c.Opt == NoOption { // entry cell
		st.insertBelow(id)
		return
	}

	reg := st.regionOver(id, false)
	// Duplicate (R, opt) cells under different parents share the same
	// Definition-2 region until the post-insertion merge, so the three-way
	// classification for (opt, rj) is memoized on the region hash: the
	// second twin answers from the cache instead of re-running both LPs.
	key := dg.VerdictKey{Kind: dg.KindClassify, U: c.Opt, V: st.rj, Region: reg.Hash()}
	var rel geom.Rel
	if v, hit := st.verdicts.Lookup(key); hit {
		rel = geom.Rel(v)
	} else {
		h := geom.PrefHalfspace(ix.Pts[c.Opt], ix.Pts[st.rj]) // S_opt >= S_rj
		ix.Stats.LPCalls += 2
		rel = geom.Classify(reg, h)
		st.verdicts.Store(key, int8(rel))
	}
	switch rel {
	case geom.RelInside: // Case I: the cell's option always outranks rj here.
		st.insertBelow(id)
	case geom.RelOutside: // Case II: rj outranks the cell's option everywhere.
		st.splitCell(id, false)
	case geom.RelSplit: // Case III: the hyperplane cuts the cell.
		// Partition-built cells carry explicit bounding sets; the surviving
		// ("old option wins") part is now additionally bounded by rj.
		if c.Bound != nil {
			c.Bound = append(c.Bound, st.rj)
		}
		st.splitCell(id, true)
		// "Old option wins" side: descend into the surviving children, or —
		// at a leaf — rj becomes the next-ranked option there, exactly as
		// in Case I.
		st.insertBelow(id)
	}
}

// splitCell creates the "rj wins" side of a Case II/III event at cell id:
// a fresh rank-ℓ cell with option rj under id's parents, carrying a
// feasibility-pruned clone of id's sub-DAG shifted one level down. With
// keepOriginal=false (Case II) the original cell's region is empty, so its
// sub-DAG is cascade-deleted.
func (st *ibaState) splitCell(id int32, keepOriginal bool) {
	ix := st.ix
	cp := ix.newCell(ix.Cells[id].Level, st.rj, nil, nil)
	for _, p := range ix.Cells[id].Parents {
		ix.addEdge(p, cp)
	}
	// Clone id's sub-DAG (including id itself) one level deeper under cp.
	if st.memo == nil {
		st.memo = make(map[int32]int32)
	}
	clear(st.memo)
	st.cloneUnder(id, cp)
	if !keepOriginal {
		st.deleteCascade(id)
	}
}

// cloneUnder clones old (and recursively its sub-DAG) as a child of
// newParent, one level deeper than before, pruning clones whose regions
// (now including rj in their result sets via the new parent chain) are
// empty, and dropping clones beyond level τ. st.memo keeps the sub-DAG
// shape: a cell reachable via several in-subtree parents is cloned once.
func (st *ibaState) cloneUnder(old, newParent int32) {
	ix := st.ix
	if st.created(old) {
		// Cells born during this round already account for rj; cloning them
		// would insert rj into a path twice.
		return
	}
	if cid, ok := st.memo[old]; ok {
		if cid >= 0 {
			ix.addEdge(newParent, cid)
		}
		return
	}
	oc := &ix.Cells[old]
	newLevel := oc.Level + 1
	if int(newLevel) > ix.Tau {
		st.memo[old] = -1
		return
	}
	cid := ix.newCell(newLevel, oc.Opt, nil, nil)
	ix.addEdge(newParent, cid)
	creg := st.regionOver(cid, true)
	fkey := dg.VerdictKey{Kind: dg.KindFeasible, Region: creg.Hash()}
	feasible, hit := st.verdicts.LookupBool(fkey)
	if !hit {
		ix.Stats.LPCalls++
		feasible = creg.Feasible()
		st.verdicts.StoreBool(fkey, feasible)
	}
	if !feasible {
		// Empty region: unlink and tombstone.
		ix.unlinkEdge(newParent, cid)
		ix.Cells[cid].Level = -1
		st.memo[old] = -1
		return
	}
	st.memo[old] = cid
	lo, hi := st.snapshot(ix.Cells[old].Children)
	for i := lo; i < hi; i++ {
		if ch := st.stack[i]; ix.Cells[ch].Level >= 0 {
			st.cloneUnder(ch, cid)
		}
	}
	st.stack = st.stack[:lo]
}

// deleteCascade tombstones the cell and every descendant left parentless.
func (st *ibaState) deleteCascade(id int32) {
	ix := st.ix
	c := &ix.Cells[id]
	if c.Level < 0 {
		return
	}
	lo, mid := st.snapshot(c.Parents)
	_, hi := st.snapshot(c.Children)
	for i := lo; i < mid; i++ {
		ix.unlinkEdge(st.stack[i], id)
	}
	for i := mid; i < hi; i++ {
		ix.unlinkEdge(id, st.stack[i])
	}
	c.Level = -1
	c.Parents, c.Children, c.Bound = nil, nil, nil
	for i := mid; i < hi; i++ {
		cc := &ix.Cells[st.stack[i]]
		if cc.Level >= 0 && len(cc.Parents) == 0 {
			st.deleteCascade(cc.ID)
		}
	}
	st.stack = st.stack[:lo]
}
