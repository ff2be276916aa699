package dg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tlevelindex/internal/skyline"
)

// The paper's hotel dataset (Figure 2a / Figure 7a).
var hotels = [][]float64{
	{0.62, 0.76}, // r1 VibesInn
	{0.90, 0.48}, // r2 Artezen
	{0.73, 0.33}, // r3 citizenM
	{0.26, 0.64}, // r4 Yotel
	{0.30, 0.24}, // r5 Royalton
}

func TestBaseMatchesPaperFigure7a(t *testing.T) {
	b := NewBase(hotels)
	// Figure 7(a): r1→r4, r1→r5, r2→r3, r2→r5, r3→r5; Royalton has 3 dominators.
	wantEdges := map[[2]int32]bool{
		{0, 3}: true, {0, 4}: true, {1, 2}: true, {1, 4}: true, {2, 4}: true,
	}
	for u := int32(0); u < 5; u++ {
		for v := int32(0); v < 5; v++ {
			if u == v {
				continue
			}
			if got, want := b.HasEdge(u, v), wantEdges[[2]int32{u, v}]; got != want {
				t.Errorf("HasEdge(%d,%d) = %v, want %v", u+1, v+1, got, want)
			}
		}
	}
	if b.InDegree(4) != 3 {
		t.Errorf("Royalton dominators = %d, want 3", b.InDegree(4))
	}
	if b.Size() != 5 {
		t.Errorf("Size = %d", b.Size())
	}
}

func TestRootFrontierIsSkyline(t *testing.T) {
	b := NewBase(hotels)
	g := NewGraph(b)
	got := g.Frontier()
	want := []int32{0, 1} // VibesInn, Artezen (Observation 1)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("root frontier = %v, want %v", got, want)
	}
}

func TestConsumeUpdatesCounts(t *testing.T) {
	b := NewBase(hotels)
	g := NewGraph(b)
	g.Consume(0) // VibesInn becomes top-1
	// Yotel (3) loses its only dominator.
	if g.Count(3) != 0 {
		t.Errorf("Yotel count after consuming r1 = %d, want 0", g.Count(3))
	}
	// Royalton (4) drops from 3 to 2.
	if g.Count(4) != 2 {
		t.Errorf("Royalton count = %d, want 2", g.Count(4))
	}
	front := g.Frontier()
	want := []int32{1, 3} // Artezen and Yotel, as in Figure 7(d)
	if !reflect.DeepEqual(front, want) {
		t.Errorf("frontier after consuming r1 = %v, want %v", front, want)
	}
	if !g.Consumed(0) || g.Consumed(1) {
		t.Error("consumed bookkeeping wrong")
	}
}

func TestAddEdgeAndFrontier(t *testing.T) {
	b := NewBase(hotels)
	g := NewGraph(b)
	g.Consume(0)
	// Figure 7(c): within C1, Yotel dominates Royalton — a new edge.
	g.AddEdge(3, 4)
	if g.Count(4) != 3 {
		t.Errorf("Royalton count after added edge = %d, want 3", g.Count(4))
	}
	if !g.HasEdge(3, 4) {
		t.Error("added edge not visible")
	}
	g.AddEdge(3, 4) // duplicate: no double count
	if g.Count(4) != 3 {
		t.Errorf("duplicate AddEdge changed count to %d", g.Count(4))
	}
	// τ=3, cell level 1: prune options with more than τ-ℓ-1 = 1 dominator.
	g.DropAbove(1)
	pool := g.Pool()
	sort.Slice(pool, func(a, b int) bool { return pool[a] < pool[b] })
	want := []int32{1, 2, 3} // Royalton (4) pruned, as in Figure 7(d)
	if !reflect.DeepEqual(pool, want) {
		t.Errorf("pool after prune = %v, want %v", pool, want)
	}
}

func TestAddEdgePanicsOnConsumed(t *testing.T) {
	b := NewBase(hotels)
	g := NewGraph(b)
	g.Consume(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic adding edge from consumed node")
		}
	}()
	g.AddEdge(0, 4)
}

func TestCloneIndependence(t *testing.T) {
	b := NewBase(hotels)
	g := NewGraph(b)
	g.Consume(0)
	c := g.Clone()
	c.AddEdge(3, 4)
	c.Consume(1)
	if g.HasEdge(3, 4) {
		t.Error("clone edge leaked into parent")
	}
	if g.Consumed(1) {
		t.Error("clone consume leaked into parent")
	}
	if g.Count(4) != c.Count(4)+0 && false {
		t.Error("unreachable")
	}
	// Parent count for Royalton: still 2 (only r1 consumed).
	if g.Count(4) != 2 {
		t.Errorf("parent count changed: %d", g.Count(4))
	}
	// Clone: r1, r2 consumed, plus edge 3->4: 3-2+1 = 2.
	if c.Count(4) != 2 {
		t.Errorf("clone count = %d, want 2", c.Count(4))
	}
}

func TestMergeIntersectsAddedEdges(t *testing.T) {
	b := NewBase(hotels)
	root := NewGraph(b)
	root.Consume(0)
	root.Consume(1)
	a := root.Clone()
	c := root.Clone()
	a.AddEdge(3, 4)
	a.AddEdge(2, 3)
	c.AddEdge(3, 4)
	m := Merge(a, c)
	if !m.HasEdge(3, 4) {
		t.Error("edge present in both graphs lost in merge")
	}
	if m.HasEdge(2, 3) {
		t.Error("edge present in only one graph survived merge")
	}
	// Count check vs naive: Royalton has base dominators {r1,r2,r3}; r1,r2
	// consumed → 1, plus merged edge 3->4 → 2.
	if m.Count(4) != 2 {
		t.Errorf("merged count = %d, want 2", m.Count(4))
	}
	// Pools union.
	if len(m.Pool()) != len(a.Pool()) {
		t.Errorf("merged pool = %v", m.Pool())
	}
}

func TestMergePanicsOnDifferentConsumed(t *testing.T) {
	b := NewBase(hotels)
	g1 := NewGraph(b)
	g2 := NewGraph(b)
	g1.Consume(0)
	g2.Consume(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched consumed sets")
		}
	}()
	Merge(g1, g2)
}

func TestMergeSingleAndEmpty(t *testing.T) {
	b := NewBase(hotels)
	g := NewGraph(b)
	if Merge(g) != g {
		t.Error("single-graph merge should return the graph")
	}
	if Merge() != nil {
		t.Error("empty merge should return nil")
	}
}

// TestCountsMatchNaive cross-checks incremental counts against a from-
// scratch recomputation through random consume/add/merge sequences.
func TestCountsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(30)
		pts := make([][]float64, n)
		for i := range pts {
			p := make([]float64, 3)
			for j := range p {
				p[j] = rng.Float64()
			}
			pts[i] = p
		}
		b := NewBase(pts)
		g := NewGraph(b)
		type edge struct{ u, v int32 }
		var addedEdges []edge
		consumed := map[int32]bool{}
		for step := 0; step < 10; step++ {
			if rng.Intn(2) == 0 && len(g.Pool()) > 0 {
				u := g.Pool()[rng.Intn(len(g.Pool()))]
				g.Consume(u)
				consumed[u] = true
			} else if len(g.Pool()) >= 2 {
				p := g.Pool()
				u := p[rng.Intn(len(p))]
				v := p[rng.Intn(len(p))]
				if u != v && !g.HasEdge(u, v) && !g.HasEdge(v, u) {
					g.AddEdge(u, v)
					addedEdges = append(addedEdges, edge{u, v})
				}
			}
		}
		for v := int32(0); int(v) < n; v++ {
			if consumed[v] {
				continue
			}
			naive := int32(0)
			for u := int32(0); int(u) < n; u++ {
				if u == v || consumed[u] {
					continue
				}
				if skyline.Dominates(pts[u], pts[v]) {
					naive++
				}
			}
			for _, e := range addedEdges {
				if e.v == v && !consumed[e.u] && !b.HasEdge(e.u, e.v) {
					naive++
				}
			}
			if g.Count(v) != naive {
				t.Fatalf("count[%d] = %d, naive = %d", v, g.Count(v), naive)
			}
		}
	}
}

func TestFrontierSupersetOfSkyline(t *testing.T) {
	// The frontier of a fresh graph must be exactly the skyline.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(50)
		d := 2 + rng.Intn(3)
		pts := make([][]float64, n)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.Float64()
			}
			pts[i] = p
		}
		g := NewGraph(NewBase(pts))
		front := g.Frontier()
		got := make([]int, len(front))
		for i, v := range front {
			got[i] = int(v)
		}
		want := skyline.Skyline(pts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frontier %v != skyline %v", got, want)
		}
	}
}

// TestGraphMatchesReference runs seeded random sequences of AddEdge,
// Consume, DropAbove, Clone and Merge (of 2–4 clones) against the
// slice-backed Graph and the map-backed refGraph side by side, and after
// every step requires every live pair to agree on Pool, Frontier, Count,
// HasEdge and Consumed over the whole universe.
func TestGraphMatchesReference(t *testing.T) {
	type pair struct {
		g *Graph
		r *refGraph
	}
	check := func(t *testing.T, step string, m int, ps []pair) {
		t.Helper()
		for i, p := range ps {
			if !slices.Equal(p.g.Pool(), p.r.Pool()) {
				t.Fatalf("%s: graph %d pool %v, reference %v", step, i, p.g.Pool(), p.r.Pool())
			}
			if !slices.Equal(p.g.Frontier(), p.r.Frontier()) {
				t.Fatalf("%s: graph %d frontier %v, reference %v", step, i, p.g.Frontier(), p.r.Frontier())
			}
			for u := int32(0); int(u) < m; u++ {
				if p.g.Count(u) != p.r.Count(u) || p.g.Consumed(u) != p.r.Consumed(u) {
					t.Fatalf("%s: graph %d node %d count/consumed %d/%v, reference %d/%v", step, i, u,
						p.g.Count(u), p.g.Consumed(u), p.r.Count(u), p.r.Consumed(u))
				}
				for v := int32(0); int(v) < m; v++ {
					if p.g.HasEdge(u, v) != p.r.HasEdge(u, v) {
						t.Fatalf("%s: graph %d HasEdge(%d,%d) = %v, reference %v", step, i, u, v,
							p.g.HasEdge(u, v), p.r.HasEdge(u, v))
					}
				}
			}
		}
	}
	// mutate applies one random AddEdge, DropAbove or (unless noConsume)
	// Consume to both sides of p.
	mutate := func(rng *rand.Rand, m int, p pair, noConsume bool) string {
		u, v := int32(rng.Intn(m)), int32(rng.Intn(m))
		switch op := rng.Intn(6); {
		case op < 3:
			if u == v || p.r.Consumed(u) || p.r.Consumed(v) {
				return "skip"
			}
			p.g.AddEdge(u, v)
			p.r.AddEdge(u, v)
			return "AddEdge"
		case op < 5 && !noConsume:
			p.g.Consume(u)
			p.r.Consume(u)
			return "Consume"
		default:
			th := int32(rng.Intn(4))
			p.g.DropAbove(th)
			p.r.DropAbove(th)
			return "DropAbove"
		}
	}
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 40; trial++ {
		m := 3 + rng.Intn(25)
		pts := make([][]float64, m)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		b := NewBase(pts)
		ps := []pair{{NewGraph(b), newRefGraph(b)}}
		for step := 0; step < 40; step++ {
			i := rng.Intn(len(ps))
			var name string
			switch op := rng.Intn(10); {
			case op < 6:
				name = mutate(rng, m, ps[i], false)
			case op < 8 && len(ps) < 6:
				name = "Clone"
				ps = append(ps, pair{ps[i].g.Clone(), ps[i].r.Clone()})
			default:
				// Merge 2–4 clones of one graph after each diverges by a
				// few edges and drops; all of them consume the same option
				// or none, so their consumed sets agree.
				name = "Merge"
				k := 2 + rng.Intn(3)
				gs, rs := make([]*Graph, k), make([]*refGraph, k)
				consume := int32(rng.Intn(m))
				withConsume := rng.Intn(2) == 0 && !ps[i].r.Consumed(consume)
				for j := range gs {
					c := pair{ps[i].g.Clone(), ps[i].r.Clone()}
					for n := rng.Intn(5); n > 0; n-- {
						mutate(rng, m, c, true)
					}
					if withConsume {
						c.g.Consume(consume)
						c.r.Consume(consume)
					}
					gs[j], rs[j] = c.g, c.r
				}
				ps[i] = pair{Merge(gs...), refMerge(rs...)}
			}
			check(t, fmt.Sprintf("trial %d step %d %s", trial, step, name), m, ps)
		}
	}
}

// refGraph is the map-backed Graph the slice-backed one replaced, kept
// verbatim (renamed) as the reference TestGraphMatchesReference checks
// every operation against.
type refGraph struct {
	base     *Base
	consumed map[int32]bool
	added    map[int64]struct{}
	addedOut map[int32][]int32
	count    []int32 // current in-counts over unconsumed dominators
	pool     []int32 // unconsumed, not-yet-pruned nodes, sorted
}

// newRefGraph returns the root-cell graph: all options in the pool, counts from
// global dominance, no consumed options, no added edges.
func newRefGraph(base *Base) *refGraph {
	g := &refGraph{
		base:     base,
		consumed: make(map[int32]bool),
		added:    make(map[int64]struct{}),
		addedOut: make(map[int32][]int32),
		count:    make([]int32, base.m),
		pool:     make([]int32, base.m),
	}
	for v := 0; v < base.m; v++ {
		g.count[v] = int32(len(base.in[v]))
		g.pool[v] = int32(v)
	}
	return g
}

// Clone returns an independent copy for a child cell.
func (g *refGraph) Clone() *refGraph {
	ng := &refGraph{
		base:     g.base,
		consumed: make(map[int32]bool, len(g.consumed)),
		added:    make(map[int64]struct{}, len(g.added)),
		addedOut: make(map[int32][]int32, len(g.addedOut)),
		count:    append([]int32(nil), g.count...),
		pool:     append([]int32(nil), g.pool...),
	}
	for k := range g.consumed {
		ng.consumed[k] = true
	}
	for k := range g.added {
		ng.added[k] = struct{}{}
	}
	for u, vs := range g.addedOut {
		ng.addedOut[u] = append([]int32(nil), vs...)
	}
	return ng
}

// Pool returns the current candidate pool (unconsumed, unpruned), sorted.
func (g *refGraph) Pool() []int32 { return g.pool }

// Count returns the current dominator count of v.
func (g *refGraph) Count(v int32) int32 { return g.count[v] }

// Consumed reports whether v has been consumed (is in the cell's top set).
func (g *refGraph) Consumed(v int32) bool { return g.consumed[v] }

// HasEdge reports whether the graph knows that u dominates v in this cell
// (global dominance or an added cell-specific edge).
func (g *refGraph) HasEdge(u, v int32) bool {
	if g.base.HasEdge(u, v) {
		return true
	}
	_, ok := g.added[edgeKey(u, v)]
	return ok
}

// AddEdge records the cell-specific fact that u dominates v in this cell.
// Duplicate additions are ignored. Adding an edge from a consumed node is a
// bug in the caller and panics.
func (g *refGraph) AddEdge(u, v int32) {
	if g.consumed[u] || g.consumed[v] {
		panic(fmt.Sprintf("dg: edge %d->%d touches consumed node", u, v))
	}
	if g.HasEdge(u, v) {
		return
	}
	g.added[edgeKey(u, v)] = struct{}{}
	g.addedOut[u] = append(g.addedOut[u], v)
	g.count[v]++
}

// Consume removes u from the pool because it became the cell's top-ℓ-th
// option: its out-edges stop counting against the remaining nodes.
func (g *refGraph) Consume(u int32) {
	if g.consumed[u] {
		return
	}
	g.consumed[u] = true
	for _, v := range g.base.out[u] {
		g.count[v]--
	}
	for _, v := range g.addedOut[u] {
		g.count[v]--
	}
	g.pool = refRemoveSorted(g.pool, u)
}

// DropAbove permanently removes pool nodes whose dominator count exceeds
// threshold: they cannot reach the remaining levels (once dead, always dead
// — counts drop by at most one per consumed level while the threshold drops
// by exactly one). Their edges remain as ghost contributions to other
// nodes' counts.
func (g *refGraph) DropAbove(threshold int32) {
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
func (g *refGraph) Frontier() []int32 {
	var out []int32
	for _, v := range g.pool {
		if g.count[v] == 0 {
			out = append(out, v)
		}
	}
	return out
}

// refMerge combines the graphs of cells being merged into one cell (same top
// set). Added edges are intersected (an edge must hold over the union of
// regions, hence in every part); pools are unioned; counts are recomputed.
// All graphs must agree on their consumed sets.
func refMerge(gs ...*refGraph) *refGraph {
	if len(gs) == 0 {
		return nil
	}
	if len(gs) == 1 {
		return gs[0]
	}
	first := gs[0]
	for _, g := range gs[1:] {
		if len(g.consumed) != len(first.consumed) {
			panic("dg: merging graphs with different consumed sets")
		}
		for k := range first.consumed {
			if !g.consumed[k] {
				panic("dg: merging graphs with different consumed sets")
			}
		}
	}
	ng := &refGraph{
		base:     first.base,
		consumed: make(map[int32]bool, len(first.consumed)),
		added:    make(map[int64]struct{}),
		addedOut: make(map[int32][]int32),
		count:    make([]int32, first.base.m),
	}
	for k := range first.consumed {
		ng.consumed[k] = true
	}
	// Intersect added edges. Edges whose source has been consumed (ranked
	// into R) are dropped: they must not contribute to dominator counts.
	for k := range first.added {
		u := int32(k >> 32)
		if ng.consumed[u] {
			continue
		}
		inAll := true
		for _, g := range gs[1:] {
			if _, ok := g.added[k]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			ng.added[k] = struct{}{}
			ng.addedOut[u] = append(ng.addedOut[u], int32(uint32(k)))
		}
	}
	// Union pools.
	poolSet := make(map[int32]bool)
	for _, g := range gs {
		for _, v := range g.pool {
			poolSet[v] = true
		}
	}
	ng.pool = make([]int32, 0, len(poolSet))
	for v := range poolSet {
		ng.pool = append(ng.pool, v)
	}
	sort.Slice(ng.pool, func(a, b int) bool { return ng.pool[a] < ng.pool[b] })
	// Recompute counts: base in-degree minus consumed dominators, plus
	// intersected added edges.
	for v := 0; v < first.base.m; v++ {
		ng.count[v] = int32(len(first.base.in[v]))
	}
	for u := range ng.consumed {
		for _, v := range first.base.out[u] {
			ng.count[v]--
		}
	}
	for u, vs := range ng.addedOut {
		_ = u
		for _, v := range vs {
			ng.count[v]++
		}
	}
	return ng
}

func refRemoveSorted(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
