package index

import (
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
	st := &ibaState{ix: ix}
	for _, oi := range order {
		st.begin(int32(oi))
		st.insert(ix.Root())
		st.inserted = append(st.inserted, st.rj)
		st.mergeCreated()
	}
	ix.fixupEdges()
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
func (ix *Index) fixupEdges() {
	fx := make([]fixupCell, len(ix.Cells))
	byKey := make(map[string]int32)
	var groups [][]int32 // groups[g] lists, ascending, the cells sharing one result set
	perLevel := make([][]int32, ix.Tau+1)
	var ids []int32 // every live cell below the root, ascending
	var rbuf []int32
	var keyBuf []byte
	for i := range ix.Cells {
		c := &ix.Cells[i]
		if c.Level < 1 {
			fx[i].group = -1
			continue
		}
		rbuf = ix.resultSetInto(c.ID, rbuf)
		keyBuf = appendSetKey(keyBuf[:0], rbuf)
		g, ok := byKey[string(keyBuf)]
		if !ok {
			g = int32(len(groups))
			groups = append(groups, nil)
			byKey[string(keyBuf)] = g
		}
		fx[i].group = g
		groups[g] = append(groups[g], c.ID)
		perLevel[c.Level] = append(perLevel[c.Level], c.ID)
		ids = append(ids, c.ID)
	}
	// Assemble every cell's region, in parallel. Parent chains stay
	// untouched until the rewiring at the end, so each region is the one
	// Region(id) gives now.
	pool.ForEach(ix.workers, len(ids), func(i int) { fx[ids[i]].reg = ix.Region(ids[i]) })
	// Compute the exact parent set of every cell, ascending by level so that
	// cells whose regions turn out empty are tombstoned before they can act
	// as parents. Result sets were captured above, so rewiring edges
	// afterwards cannot corrupt them.
	for l := 1; l <= ix.Tau; l++ {
		lvl := perLevel[l]
		if l == 1 {
			for _, id := range lvl {
				fx[id].parents = []int32{ix.Root()}
			}
			continue
		}
		// A cell's result sequence is its first parent's plus its own
		// option, so the first parent's group is the child's prefix.
		pool.ForEach(ix.workers, len(lvl), func(i int) {
			id := lvl[i]
			var cands []int32
			if g := fx[ix.Cells[id].Parents[0]].group; g >= 0 {
				cands = groups[g]
			}
			ix.exactScan(fx, id, cands)
		})
		for _, id := range lvl {
			e := &fx[id]
			ix.Stats.LPCalls += e.lpCalls
			if len(e.parents) > 0 {
				continue
			}
			// No full-dimensional parent intersection. Either the cell's
			// own region is empty (a stale structural leftover — drop
			// it), or everything is degenerate within tolerance (keep
			// the best boundary-touching parent so paths stay intact).
			if e.fallback < 0 {
				ix.Cells[id].Level = -1
				continue
			}
			e.parents = append(e.parents, e.fallback)
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
		c.Parents = append(c.Parents[:0], fx[i].parents...)
		for _, p := range c.Parents {
			ix.Cells[p].Children = append(ix.Cells[p].Children, c.ID)
		}
	}
}

// fixupCell is fixupEdges' scratch for one cell: its result-set group, its
// region, and what its parent scan decided.
type fixupCell struct {
	group    int32
	reg      *geom.Region
	parents  []int32
	fallback int32 // best boundary-touching parent, -1 when none
	lpCalls  int64
}

// exactScan settles the parents of cell id, a cell of level two or
// deeper: one full intersection LP per live candidate, plus the
// empty-or-degenerate check when none passes.
func (ix *Index) exactScan(fx []fixupCell, id int32, cands []int32) {
	e := &fx[id]
	e.fallback = -1
	var fallbackMargin float64
	comb := geom.GetRegion()
	defer geom.PutRegion(comb)
	for _, p := range cands {
		if ix.Cells[p].Level < 0 {
			continue // parent was tombstoned
		}
		comb.CopyFrom(e.reg)
		comb.Add(fx[p].reg.HS...)
		e.lpCalls++
		if m, ok := comb.FeasibleMargin(); ok {
			if m > geom.InteriorEps {
				e.parents = append(e.parents, p)
			} else if e.fallback < 0 || m > fallbackMargin {
				e.fallback, fallbackMargin = p, m
			}
		}
	}
	if len(e.parents) == 0 {
		// No full-dimensional parent intersection: decide between
		// dropping the cell and keeping its best boundary parent.
		e.lpCalls++
		if !e.reg.Feasible() {
			e.fallback = -1
		}
	}
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
// record of a build: begin starts the next round and the scratch below is
// reused.
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

	// stack holds the adjacency snapshots of the recursion's live frames:
	// a frame iterates a copy of a list the calls below it edit.
	stack   []int32
	memo    map[int32]int32 // cloneUnder's old cell → clone, per split
	byLevel [][]int32       // mergeCreated
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
			ix.mergeLevel(st.byLevel[l], nil)
		}
	}
}

// regionOver builds the Definition-2 region of a cell with respect to the
// inserted-so-far universe, optionally counting rj as inserted (withRJ).
func (st *ibaState) regionOver(id int32, withRJ bool) *geom.Region {
	ix := st.ix
	c := &ix.Cells[id]
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

	h := geom.PrefHalfspace(ix.Pts[c.Opt], ix.Pts[st.rj]) // S_opt >= S_rj
	ix.Stats.LPCalls += 2
	switch geom.Classify(st.regionOver(id, false), h) {
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
	ix.Stats.LPCalls++
	if !st.regionOver(cid, true).Feasible() {
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
