// Package dg implements the dominance graphs of §6.3: per-cell directed
// graphs over option ids whose edges assert "u scores at least v everywhere
// in this cell". The global coordinate-dominance relation forms an immutable
// shared Base; each cell carries a lightweight Graph view with consumed
// options removed, cell-specific edges added, and dominator counts
// maintained incrementally. Graphs are inherited parent→child (Lemma 4) and
// merged with cell merges (node union, edge intersection). A Graph is four
// sorted or dense slices and no maps, so a child's Clone is four copies and
// a Merge is a walk over sorted slices.
//
// Soundness contract: every edge, base or added, must be a true dominance
// statement for the cell's region; counts are then lower bounds on the true
// number of C-dominators, so candidate sets (in-degree-0 nodes) are
// supersets of the true top-(ℓ+1)-th option sets and count-threshold pruning
// never removes a viable option.
package dg

import (
	"fmt"
	"slices"

	"tlevelindex/internal/skyline"
)

// Base holds the global coordinate-dominance relation over the filtered
// option set. It is immutable and shared by every Graph.
type Base struct {
	m   int
	out [][]int32 // out[u] = options dominated by u, sorted
	in  [][]int32 // in[v] = options dominating v, sorted
	adj []uint64  // m×m bit matrix: bit u*m+v is set iff u dominates v
}

// NewBase computes pairwise coordinate dominance over pts. Quadratic in
// len(pts); intended for the (small) τ-skyband-filtered option set.
func NewBase(pts [][]float64) *Base {
	m := len(pts)
	b := &Base{m: m, out: make([][]int32, m), in: make([][]int32, m), adj: make([]uint64, (m*m+63)/64)}
	// The bit matrix first; then out and in are windows of one slab each,
	// sized by counting its rows and columns.
	nOut, nIn := make([]int, m), make([]int, m)
	edges := 0
	for u := 0; u < m; u++ {
		for v := 0; v < m; v++ {
			if u != v && skyline.Dominates(pts[u], pts[v]) {
				bit := u*m + v
				b.adj[bit>>6] |= 1 << (bit & 63)
				nOut[u]++
				nIn[v]++
				edges++
			}
		}
	}
	outSlab, inSlab := make([]int32, edges), make([]int32, edges)
	for u := 0; u < m; u++ {
		b.out[u], outSlab = outSlab[:0:nOut[u]], outSlab[nOut[u]:]
		b.in[u], inSlab = inSlab[:0:nIn[u]], inSlab[nIn[u]:]
	}
	for u := 0; u < m; u++ {
		for v := 0; v < m; v++ {
			if b.HasEdge(int32(u), int32(v)) {
				b.out[u] = append(b.out[u], int32(v))
				b.in[v] = append(b.in[v], int32(u))
			}
		}
	}
	return b
}

// Size returns the number of options in the base universe.
func (b *Base) Size() int { return b.m }

// HasEdge reports whether u globally dominates v.
func (b *Base) HasEdge(u, v int32) bool {
	bit := int(u)*b.m + int(v)
	return b.adj[bit>>6]&(1<<(bit&63)) != 0
}

// InDegree returns the number of global dominators of v.
func (b *Base) InDegree(v int32) int { return len(b.in[v]) }

// edgeKey packs an edge so that sorted keys order edges by (source,
// target): the edges out of one source are one contiguous key range.
func edgeKey(u, v int32) int64 { return int64(u)<<32 | int64(uint32(v)) }

func edgeTarget(k int64) int32 { return int32(uint32(k)) }

// Graph is a per-cell dominance graph view.
type Graph struct {
	base     *Base
	consumed []int32 // consumed options, sorted
	added    []int64 // cell-specific edges as edgeKeys, sorted
	count    []int32 // current in-counts over unconsumed dominators
	pool     []int32 // unconsumed, not-yet-pruned nodes, sorted
}

// NewGraph returns the root-cell graph: all options in the pool, counts from
// global dominance, no consumed options, no added edges.
func NewGraph(base *Base) *Graph {
	g := &Graph{
		base:  base,
		count: make([]int32, base.m),
		pool:  make([]int32, base.m),
	}
	for v := 0; v < base.m; v++ {
		g.count[v] = int32(len(base.in[v]))
		g.pool[v] = int32(v)
	}
	return g
}

// Clone returns an independent copy for a child cell. Its three int32
// slices share one allocation, with a spare slot after consumed for the
// Consume a child's graph gets next.
func (g *Graph) Clone() *Graph { return &g.Clones(1)[0] }

// Clones returns n independent copies, as n Clone calls would, in three
// allocations: the graphs, their edge lists, and their int32 slices. Every
// slice is capped where the next copy's begins, so growing one copies it
// out.
func (g *Graph) Clones(n int) []Graph {
	nc, nk, np, ne := len(g.consumed), len(g.count), len(g.pool), len(g.added)
	w := nc + 1 + nk + np
	out := make([]Graph, n)
	slab := make([]int32, n*w)
	var edges []int64
	if ne > 0 {
		edges = make([]int64, n*ne)
	}
	for i := range out {
		s := slab[i*w : (i+1)*w : (i+1)*w]
		c := &out[i]
		c.base = g.base
		c.consumed = append(s[:0:nc+1], g.consumed...)
		c.count = s[nc+1 : nc+1+nk : nc+1+nk]
		c.pool = s[nc+1+nk:]
		copy(c.count, g.count)
		copy(c.pool, g.pool)
		if ne > 0 {
			c.added = edges[i*ne : (i+1)*ne : (i+1)*ne]
			copy(c.added, g.added)
		}
	}
	return out
}

// Pool returns the current candidate pool (unconsumed, unpruned), sorted.
func (g *Graph) Pool() []int32 { return g.pool }

// Count returns the current dominator count of v.
func (g *Graph) Count(v int32) int32 { return g.count[v] }

// Consumed reports whether v has been consumed (is in the cell's top set).
func (g *Graph) Consumed(v int32) bool {
	_, ok := slices.BinarySearch(g.consumed, v)
	return ok
}

// HasEdge reports whether the graph knows that u dominates v in this cell
// (global dominance or an added cell-specific edge).
func (g *Graph) HasEdge(u, v int32) bool {
	if g.base.HasEdge(u, v) {
		return true
	}
	_, ok := slices.BinarySearch(g.added, edgeKey(u, v))
	return ok
}

// addedOut returns the added edges out of u: one key range of added.
func (g *Graph) addedOut(u int32) []int64 {
	lo, _ := slices.BinarySearch(g.added, edgeKey(u, 0))
	hi, _ := slices.BinarySearch(g.added, edgeKey(u+1, 0))
	return g.added[lo:hi]
}

// AddEdge records the cell-specific fact that u dominates v in this cell.
// Duplicate additions are ignored. Adding an edge from a consumed node is a
// bug in the caller and panics.
func (g *Graph) AddEdge(u, v int32) { g.AddEdges([]int32{u}, []int32{v}) }

// AddEdges records that us[i] dominates vs[i] in this cell for every i, as
// that many AddEdge calls would, with one merge into the sorted edge list.
func (g *Graph) AddEdges(us, vs []int32) {
	var buf [16]int64
	fresh := buf[:0]
	for i, u := range us {
		v := vs[i]
		if g.Consumed(u) || g.Consumed(v) {
			panic(fmt.Sprintf("dg: edge %d->%d touches consumed node", u, v))
		}
		if g.base.HasEdge(u, v) {
			continue
		}
		if _, ok := slices.BinarySearch(g.added, edgeKey(u, v)); !ok {
			fresh = append(fresh, edgeKey(u, v))
		}
	}
	if len(fresh) == 0 {
		return
	}
	slices.Sort(fresh)
	fresh = slices.Compact(fresh)
	for _, k := range fresh {
		g.count[edgeTarget(k)]++
	}
	g.added = unionSorted(g.added, fresh)
}

// Consume removes u from the pool because it became the cell's top-ℓ-th
// option: its out-edges stop counting against the remaining nodes.
func (g *Graph) Consume(u int32) {
	i, ok := slices.BinarySearch(g.consumed, u)
	if ok {
		return
	}
	g.consumed = slices.Insert(g.consumed, i, u)
	for _, v := range g.base.out[u] {
		g.count[v]--
	}
	for _, k := range g.addedOut(u) {
		g.count[edgeTarget(k)]--
	}
	g.pool = removeSorted(g.pool, u)
}

// DropAbove permanently removes pool nodes whose dominator count exceeds
// threshold: they cannot reach the remaining levels (once dead, always dead
// — counts drop by at most one per consumed level while the threshold drops
// by exactly one). Their edges remain as ghost contributions to other
// nodes' counts.
func (g *Graph) DropAbove(threshold int32) {
	keep := g.pool[:0]
	for _, v := range g.pool {
		if g.count[v] <= threshold {
			keep = append(keep, v)
		}
	}
	g.pool = keep
}

// Frontier returns the pool nodes with zero known dominators — the superset
// of options that can rank next in this cell.
func (g *Graph) Frontier() []int32 { return g.AppendFrontier(nil) }

// AppendFrontier appends the frontier to dst and returns the result.
func (g *Graph) AppendFrontier(dst []int32) []int32 {
	for _, v := range g.pool {
		if g.count[v] == 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// Merge combines the graphs of cells being merged into one cell (same top
// set). Added edges are intersected (an edge must hold over the union of
// regions, hence in every part); pools are unioned; counts are recomputed.
// All graphs must agree on their consumed sets.
func Merge(gs ...*Graph) *Graph {
	if len(gs) == 0 {
		return nil
	}
	if len(gs) == 1 {
		return gs[0]
	}
	first := gs[0]
	for _, g := range gs[1:] {
		if !slices.Equal(g.consumed, first.consumed) {
			panic("dg: merging graphs with different consumed sets")
		}
	}
	ng := &Graph{
		base:     first.base,
		consumed: slices.Clone(first.consumed),
		count:    make([]int32, first.base.m),
		pool:     first.pool,
	}
	// Intersect added edges. Edges whose source has been consumed (ranked
	// into R) are dropped: they must not contribute to dominator counts.
	ng.added = make([]int64, 0, len(first.added))
	for _, k := range first.added {
		if !ng.Consumed(int32(k >> 32)) {
			ng.added = append(ng.added, k)
		}
	}
	for _, g := range gs[1:] {
		ng.added = intersectSorted(ng.added, g.added)
		ng.pool = unionSorted(ng.pool, g.pool)
	}
	// Recompute counts: base in-degree minus consumed dominators, plus
	// intersected added edges.
	for v := range ng.count {
		ng.count[v] = int32(len(first.base.in[v]))
	}
	for _, u := range ng.consumed {
		for _, v := range first.base.out[u] {
			ng.count[v]--
		}
	}
	for _, k := range ng.added {
		ng.count[edgeTarget(k)]++
	}
	return ng
}

// intersectSorted keeps the keys of a that are also in b, in place.
func intersectSorted(a, b []int64) []int64 {
	out, j := a[:0], 0
	for _, k := range a {
		for j < len(b) && b[j] < k {
			j++
		}
		if j < len(b) && b[j] == k {
			out = append(out, k)
			j++
		}
	}
	return out
}

// unionSorted returns the sorted union of a and b in a new slice.
func unionSorted[T int32 | int64](a, b []T) []T {
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func removeSorted(s []int32, v int32) []int32 {
	if i, ok := slices.BinarySearch(s, v); ok {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
