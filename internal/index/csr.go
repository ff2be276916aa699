package index

import (
	"slices"
	"sort"
	"sync"

	"tlevelindex/internal/geom"
)

// Flat CSR cell storage. A built index keeps its DAG adjacency in three
// shared int32 arenas (children, parents, bound sets) with one per-cell
// (offset, length) header each, instead of three small heap slices per cell.
// Queries then walk contiguous memory, snapshots serialize as a few large
// arrays (format X3), and the per-cell slice form survives only as the
// build-time staging structure.
//
// Lifecycle: the builders and the extension machinery mutate the staging
// slices (Cell.Parents/Children/Bound). compact() finishes a build by
// calling freeze(), which moves the adjacency into a flatDAG and nils the
// staging slices; an insert batch is a build, so it starts from no cells.
// ExtendTau, the one mutation of a built index, calls thaw() first to
// materialize staging slices back from the flat form, does its slice
// surgery, and re-freezes. All readers go through the childrenOf /
// parentsOf / boundOf accessors, which work in either mode.

// flatDAG is the frozen CSR adjacency of an index.
type flatDAG struct {
	spans    []cellSpans
	children []int32
	parents  []int32
	bounds   []int32
	// optCells is the option→cells column: option o's live cells are
	// optCells[optOff[o]:optOff[o+1]], ascending by (level, id). A cell's
	// option is its ℓ-th-ranked one and occurs once on any root path, so the
	// cells where o ranks top-k are exactly the prefix at levels ≤ k (the
	// kSPR answer), and the first entry's level is o's best rank (MaxRank).
	// Derived: heap-owned, immutable once built, never serialized.
	optCells []int32
	optOff   []int32
	// levels holds one slot per level of two lazily filled columns, each
	// level under its own sync.Once, so a publish or a load that no query
	// reads pays nothing. Derived like optCells.
	levels []levelCols
}

// levelCols is one level's slot of the rows and box columns.
//
// The rows column holds the halfspace rows (RowsInto) of every live cell at
// the level, assembled once by the first reader of any of them instead of
// on every visit: rows is one slab whose coefficient vectors are windows of
// one more, and a cell's rows are the window its cellSpans.rowOff/rowLen
// record. A fill writes only its own level's cells' spans, which nothing
// reads before the level's Once has returned.
//
// The box column holds the bounding boxes of the level's cells in
// Levels[l] order, 2·RDim floats each (lo, then hi), padded outward by
// geom.BoxPad, for UTK to skip the cells that miss its box.
type levelCols struct {
	rowsOnce, boxOnce sync.Once
	rows              geom.Rows
	box               []float64
}

// cellSpans locates one cell's adjacency lists inside the arenas.
// boundLen == -1 encodes a nil bound set (the Definition-2 "every inserted
// option outside R" semantics), distinct from an empty one.
type cellSpans struct {
	parentOff, parentLen int32
	childOff, childLen   int32
	boundOff, boundLen   int32
	rowOff, rowLen       int32 // the cell's window of its level's rows column
}

// freeze moves the staging adjacency slices into a flatDAG and clears them.
// List order is preserved exactly, so thaw(freeze(ix)) reproduces the
// staging form and traversal order is unchanged.
func (ix *Index) freeze() {
	var np, nc, nb int
	for i := range ix.Cells {
		c := &ix.Cells[i]
		np += len(c.Parents)
		nc += len(c.Children)
		nb += len(c.Bound)
	}
	f := &flatDAG{
		spans:    make([]cellSpans, len(ix.Cells)),
		parents:  make([]int32, 0, np),
		children: make([]int32, 0, nc),
		bounds:   make([]int32, 0, nb),
	}
	for i := range ix.Cells {
		c := &ix.Cells[i]
		s := &f.spans[i]
		s.parentOff = int32(len(f.parents))
		s.parentLen = int32(len(c.Parents))
		f.parents = append(f.parents, c.Parents...)
		s.childOff = int32(len(f.children))
		s.childLen = int32(len(c.Children))
		f.children = append(f.children, c.Children...)
		s.boundOff = int32(len(f.bounds))
		if c.Bound == nil {
			s.boundLen = -1
		} else {
			s.boundLen = int32(len(c.Bound))
			f.bounds = append(f.bounds, c.Bound...)
		}
		c.Parents, c.Children, c.Bound = nil, nil, nil
	}
	f.fillDerived(ix)
	ix.flat = f
}

// fillDerived builds the columns derived from the adjacency: the
// option→cells column, and the empty level slots of the rows and box
// columns.
func (f *flatDAG) fillDerived(ix *Index) {
	f.fillOptCells(ix)
	f.levels = make([]levelCols, ix.Tau+1)
}

// levelRows returns level l's slab of the rows column (see levelCols),
// filling it on first use.
func (ix *Index) levelRows(f *flatDAG, l int32) geom.Rows {
	lc := &f.levels[l]
	lc.rowsOnce.Do(func() { lc.rows = ix.fillRows(f, l) })
	return lc.rows
}

// fillRows assembles every live cell at level l with assembleCell and
// copies its rows into one slab, recording each cell's window in f.spans.
// A cell has its simplex rows and at most one row per halfspace it adds;
// sized for that, neither the rows nor their coefficient slab ever move.
func (ix *Index) fillRows(f *flatDAG, l int32) geom.Rows {
	dim := ix.RDim()
	total := 0
	for i := range ix.Cells {
		if ix.Cells[i].Level == l {
			total += dim + 1 + ix.HyperplaneCount(int32(i))
		}
	}
	rows := make(geom.Rows, 0, total)
	coef := make([]float64, 0, total*dim)
	var buf geom.RowBuf
	var rset []int32
	for i := range ix.Cells {
		if ix.Cells[i].Level != l {
			continue
		}
		s := &f.spans[i]
		s.rowOff = int32(len(rows))
		for _, h := range assembleCell(ix, int32(i), &buf, &rset).Rows {
			coef = append(coef, h.A...)
			rows = append(rows, geom.Halfspace{A: coef[len(coef)-dim : len(coef) : len(coef)], B: h.B})
		}
		s.rowLen = int32(len(rows)) - s.rowOff
	}
	return rows
}

// levelBoxes returns level l's slice of the box column (see levelCols),
// filling it on first use.
func (ix *Index) levelBoxes(l int) []float64 {
	lc := &ix.flat.levels[l]
	lc.boxOnce.Do(func() { lc.box = ix.fillBoxes(ix.Levels[l]) })
	return lc.box
}

// fillBoxes computes the bounding boxes of the given cells, back to back.
func (ix *Index) fillBoxes(cells []int32) []float64 {
	dim := ix.RDim()
	out := make([]float64, 2*dim*len(cells))
	var buf geom.RowBuf
	for i, id := range cells {
		b := out[2*dim*i : 2*dim*(i+1)]
		ix.RowsInto(id, &buf).BoundingBox(b[:dim], b[dim:])
	}
	return out
}

// fillOptCells builds the option→cells column (see flatDAG). It runs
// before the loader validates the index, so it trusts nothing beyond the
// loader's range checks: a cell holding no option is skipped.
func (f *flatDAG) fillOptCells(ix *Index) {
	n := len(ix.Pts)
	off := make([]int32, n+1)
	for i := range ix.Cells {
		if c := &ix.Cells[i]; c.Level > 0 && c.Opt >= 0 {
			off[c.Opt+1]++
		}
	}
	for o := range n {
		off[o+1] += off[o]
	}
	// Each option's entries are sorted as (level, id) keys, so "levels ≤ k"
	// is a prefix; cell ids mostly ascend with level already, which the sort
	// detects.
	keys := make([]uint64, off[n])
	next := slices.Clone(off[:n])
	for i := range ix.Cells {
		if c := &ix.Cells[i]; c.Level > 0 && c.Opt >= 0 {
			keys[next[c.Opt]] = uint64(c.Level)<<32 | uint64(i)
			next[c.Opt]++
		}
	}
	for o := range n {
		slices.Sort(keys[off[o]:off[o+1]])
	}
	f.optCells, f.optOff = make([]int32, len(keys)), off
	for i, k := range keys {
		f.optCells[i] = int32(uint32(k))
	}
}

// focalCells returns the focal option's cells at levels ≤ k, ascending by
// (level, id): a read-only window of the option→cells column, shared with
// the index.
func (ix *Index) focalCells(focal int32, k int) []int32 {
	f := ix.flat
	if focal < 0 || int(focal) >= len(f.optOff)-1 {
		return nil
	}
	cells := f.optCells[f.optOff[focal]:f.optOff[focal+1]]
	n := sort.Search(len(cells), func(i int) bool { return int(ix.Cells[cells[i]].Level) > k })
	return cells[:n:n]
}

// thaw materializes the staging slices back from the flat form so the
// mutation machinery can operate on them. No-op when already staged. Each
// arena is copied once (it may alias a read-only mapping) and every cell's
// list is a window of the copy with no spare capacity, so an append to one
// list moves it out instead of running into its neighbour.
func (ix *Index) thaw() {
	f := ix.flat
	if f == nil {
		return
	}
	ix.flat = nil
	parents := append([]int32(nil), f.parents...)
	children := append([]int32(nil), f.children...)
	bounds := append([]int32{}, f.bounds...)
	for i := range ix.Cells {
		c := &ix.Cells[i]
		s := &f.spans[i]
		if s.parentLen > 0 {
			c.Parents = parents[s.parentOff : s.parentOff+s.parentLen : s.parentOff+s.parentLen]
		}
		if s.childLen > 0 {
			c.Children = children[s.childOff : s.childOff+s.childLen : s.childOff+s.childLen]
		}
		if s.boundLen >= 0 {
			c.Bound = bounds[s.boundOff : s.boundOff+s.boundLen : s.boundOff+s.boundLen]
		}
	}
}

// parentsOf returns the cell's parent ids in either storage mode. The
// returned slice is index-owned and must not be mutated or appended to.
func (ix *Index) parentsOf(id int32) []int32 {
	if f := ix.flat; f != nil {
		s := &f.spans[id]
		return f.parents[s.parentOff : s.parentOff+s.parentLen : s.parentOff+s.parentLen]
	}
	return ix.Cells[id].Parents
}

// childrenOf returns the cell's child ids in either storage mode. The
// returned slice is index-owned and must not be mutated or appended to.
func (ix *Index) childrenOf(id int32) []int32 {
	if f := ix.flat; f != nil {
		s := &f.spans[id]
		return f.children[s.childOff : s.childOff+s.childLen : s.childOff+s.childLen]
	}
	return ix.Cells[id].Children
}

// boundOf returns the cell's bounding option set and whether it is the nil
// (Definition-2) bound. The returned slice is index-owned and must not be
// mutated or appended to.
func (ix *Index) boundOf(id int32) (bound []int32, isNil bool) {
	if f := ix.flat; f != nil {
		s := &f.spans[id]
		if s.boundLen < 0 {
			return nil, true
		}
		return f.bounds[s.boundOff : s.boundOff+s.boundLen : s.boundOff+s.boundLen], false
	}
	b := ix.Cells[id].Bound
	return b, b == nil
}
