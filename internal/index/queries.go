package index

import (
	"context"
	"slices"
	"sort"

	"tlevelindex/internal/geom"
)

// QueryStats reports traversal effort (the Table 5 metric). Each query's
// doc says what its two counts count; in ORU, VisitedCells is the cells
// expanded and LPCalls the exact point-to-cell distances computed.
type QueryStats struct {
	VisitedCells int
	LPCalls      int
}

// ctxCheckInterval is how many cell visits a query traversal makes between
// cancellation checks: frequent enough to abandon a runaway walk quickly,
// sparse enough that ctx.Err never shows up in profiles.
const ctxCheckInterval = 64

// checkCtx polls ctx every ctxCheckInterval visits.
func checkCtx(ctx context.Context, visits int) error {
	// Poll on the first visit (an already-canceled context aborts before
	// any real work) and every ctxCheckInterval visits after that.
	if visits == 1 || visits%ctxCheckInterval == 0 {
		return ctx.Err()
	}
	return nil
}

// KSPRResult holds the answer to a k-shortlist preference region query:
// the cells (at levels ≤ k) in which the focal option is the top-ℓ-th
// option; their union is the preference region where the focal option
// ranks top-k.
type KSPRResult struct {
	// Cells ascend by (level, id). The slice is a read-only window of the
	// index's option→cells column.
	Cells []int32
	// Stats.VisitedCells counts the column entries read: len(Cells).
	Stats QueryStats
}

// KSPR answers the kSPR query (Problem 2) for the focal option (filtered
// id). The paper walks every path from the entry cell down to level k or
// to a cell holding the focal option. That walk's answer is every cell at
// a level ≤ k that holds the focal option, because an option occurs once on
// any root path. The index keeps those cells as the option's entries in its
// option→cells column (see flatDAG), so the answer is a prefix of them.
func (ix *Index) KSPR(k int, focal int32) *KSPRResult {
	res, _ := ix.KSPRCtx(context.Background(), k, focal)
	return res
}

// KSPRCtx is KSPR under a context. It polls ctx once, before the lookup; a
// canceled context yields the context's error and an empty result.
func (ix *Index) KSPRCtx(ctx context.Context, k int, focal int32) (*KSPRResult, error) {
	res := &KSPRResult{}
	if k > ix.Tau {
		return res, ErrBeyondTau
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	res.Cells = ix.focalCells(focal, k)
	res.Stats.VisitedCells = len(res.Cells)
	return res, nil
}

// UTKPartition is one piece of the level-k partitioning of the UTK query
// region, with its top-k result set (filtered ids, rank order).
type UTKPartition struct {
	Cell int32
	TopK []int32
}

// UTKResult holds the answer to an uncertain top-k query.
type UTKResult struct {
	// Options is the union of all options that rank top-k somewhere in the
	// query region (filtered ids, ascending).
	Options []int32
	// Partitions are the level-k cells intersecting the region.
	Partitions []UTKPartition
	Stats      QueryStats
}

// UTK answers the UTK query (Problem 3) over the box query region: the
// level-k cells whose region meets the box, and the union of their top-k
// options. Children partition their parent, so these are the cells a walk
// from the entry cell would reach; the index finds them by scanning level
// k's box column instead, and tests only the cells whose box meets the
// query box.
func (ix *Index) UTK(k int, box geom.Box) *UTKResult {
	res, _ := ix.UTKCtx(context.Background(), k, box)
	return res
}

// UTKCtx is UTK with cancellation checks between candidate cells and once
// more before the answer is assembled. When the scan is abandoned it returns
// the context's error together with the partial result: Stats reflects the
// work done up to the abandonment (Options/Partitions stay empty).
// Stats.VisitedCells counts the candidates, the cells whose box meets the
// query box; partitions come in level-list order.
func (ix *Index) UTKCtx(ctx context.Context, k int, box geom.Box) (*UTKResult, error) {
	res := &UTKResult{}
	if k > ix.Tau {
		return res, ErrBeyondTau
	}
	qs := getScratch(ix.RDim())
	defer putScratch(qs)
	boxHS := qs.boxHalfspaces(box)
	// Cheap certificates: a sample point of the box that satisfies a cell's
	// halfspaces proves intersection without an LP. The sampler is a small
	// deterministic lattice plus the box center.
	samples := qs.boxSamples(box)
	// Cell i's box is boxes[o:o+2·dim] with o = 2·dim·i, lo then hi. Most
	// cells miss the query box along the first axis already, and testing
	// that on two loads before slicing the box makes the scan 2.5× faster.
	dim := ix.RDim()
	boxes := ix.levelBoxes(k)
	lo0, hi0 := box.Lo[0], box.Hi[0]
	cells := qs.cells[:0] // the partitions' cells
	defer func() { qs.cells = cells[:0] }()
	for i, id := range ix.Levels[k] {
		o := 2 * dim * i
		if boxes[o+dim] < lo0 || boxes[o] > hi0 || !boxesMeet(boxes[o:o+dim], boxes[o+dim:o+2*dim], box) {
			continue
		}
		res.Stats.VisitedCells++
		if err := checkCtx(ctx, res.Stats.VisitedCells); err != nil {
			return &UTKResult{Stats: res.Stats}, err
		}
		// Most candidates are settled on the cell's bare rows: a row that
		// excludes the whole box (which no sample could then satisfy), or a
		// sample inside every row. Only what is left pays for a Region and
		// its LP.
		rows := ix.RowsInto(id)
		if separatedFromBox(rows, box) {
			continue
		}
		hit := false
		for _, s := range samples {
			if rows.ContainsPoint(s, -1e-9) {
				hit = true
				break
			}
		}
		if !hit {
			reg := ix.regionIntoBuf(id, qs.reg, &qs.rset).Add(boxHS...)
			res.Stats.LPCalls++
			hit = reg.Feasible()
		}
		if hit {
			cells = append(cells, id)
		}
	}
	if err := ctx.Err(); err != nil {
		return &UTKResult{Stats: res.Stats}, err
	}
	// Assemble the answer: partitions are O(result) by definition, and
	// every one is a level-k cell with k options, so one slab holds all
	// their result sets; option ids are collected through a bitset into one
	// reused slice and sorted once at the end.
	if len(cells) > 0 { // none stays nil
		res.Partitions = make([]UTKPartition, len(cells))
	}
	slab := make([]int32, len(cells)*k)
	qs.optSeen.reset(len(ix.Pts))
	opts := qs.opts[:0]
	defer func() { qs.opts = opts[:0] }()
	for i, id := range cells {
		p := &res.Partitions[i]
		p.Cell = id
		p.TopK = ix.resultSetInto(id, slab[i*k:(i+1)*k:(i+1)*k])
		for _, v := range p.TopK {
			if !qs.optSeen.get(v) {
				qs.optSeen.set(v)
				opts = append(opts, v)
			}
		}
	}
	slices.Sort(opts)
	res.Options = make([]int32, len(opts))
	copy(res.Options, opts)
	return res, nil
}

// boxesMeet reports whether the box [lo, hi] meets the query box; a cell
// box of an empty cell (lo > hi) meets none.
func boxesMeet(lo, hi []float64, box geom.Box) bool {
	for j := range lo {
		if hi[j] < box.Lo[j] || lo[j] > box.Hi[j] {
			return false
		}
	}
	return true
}

// separatedFromBox reports whether one of the cell's halfspaces excludes
// the entire box (closed-form minimum over box corners): a sound, cheap
// proof that cell and box are disjoint.
func separatedFromBox(rows geom.Rows, box geom.Box) bool {
	for _, h := range rows {
		min := -h.B
		for j, a := range h.A {
			if a >= 0 {
				min += a * box.Lo[j]
			} else {
				min += a * box.Hi[j]
			}
		}
		if min > 1e-9 {
			return true
		}
	}
	return false
}

func sortedKeys(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// ORUResult holds the answer to an output-size specified utility-based
// ranking query.
type ORUResult struct {
	// Options are the m reported options (filtered ids) in the order they
	// were collected (ascending expansion distance).
	Options []int32
	// Rho is the minimum expansion radius that yields m options.
	Rho   float64
	Stats QueryStats
}

// oruEntry is a heap item: a cell and a lower bound on its distance to the
// query weight. Entries enter the heap with a cheap bound (the largest
// violation of a unit-normal halfspace is a valid distance lower bound);
// exact marks a dist that is the cell's exact projection distance, which is
// computed only for a popped cell that can add an option (see ORUCtx).
type oruEntry struct {
	cell  int32
	dist  float64
	exact bool
}

// oruPush / oruPop implement a min-heap on dist over a plain slice,
// replicating container/heap's sift order exactly (Push appends then sifts
// up; Pop swaps root and last, sifts down, then shrinks) so tie-breaking —
// and with it the reported Rho and option order — matches the historical
// boxed implementation bit for bit, without the interface{} allocation per
// operation.
func oruPush(h []oruEntry, e oruEntry) []oruEntry {
	h = append(h, e)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func oruPop(h []oruEntry) (oruEntry, []oruEntry) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[n], h[:n]
}

// ORU answers the ORU query (Problem 4): starting from the entry cell,
// visit cells in ascending distance from the reduced query weight x,
// merging each visited cell's option into the result (levels 1..k) until m
// distinct options are collected. Rho is the distance of the last cell
// whose option completed the result.
//
// The walk is best-first on a lower bound of each cell's distance, and
// only a cell that can add an option (it holds one, at a level ≤ k, not
// yet collected) has its exact distance computed: when it is popped on its
// bound it goes back on the heap at that distance, and its option is taken
// when it is popped again. Every other popped cell is expanded at its key.
// That is sound because every key is at most its cell's distance and a
// child's region lies inside the union of its parents' regions, a child
// being pushed once one parent is expanded: no cell nearer than a popped
// key is still unreached, so options come out in order of exact distance.
func (ix *Index) ORU(k int, x []float64, m int) *ORUResult {
	res, _ := ix.ORUCtx(context.Background(), k, x, m)
	return res
}

// ORUCtx is ORU with cancellation checks between cell expansions. When the
// traversal is abandoned it returns the context's error together with the
// partial result: Stats reflects the work done up to the abandonment and
// Options holds the options collected so far (fewer than m).
// Stats.VisitedCells counts the cells expanded, Stats.LPCalls the exact
// distances computed.
func (ix *Index) ORUCtx(ctx context.Context, k int, x []float64, m int) (*ORUResult, error) {
	res := &ORUResult{}
	if k > ix.Tau {
		return res, ErrBeyondTau
	}
	qs := getScratch(ix.RDim())
	defer putScratch(qs)
	h := append(qs.heap[:0], oruEntry{cell: ix.Root(), dist: 0, exact: true})
	defer func() { qs.heap = h[:0] }()
	qs.visited.reset(len(ix.Cells)) // cells already pushed onto the heap
	qs.visited.set(ix.Root())
	qs.optSeen.reset(len(ix.Pts))
	var e oruEntry
	for len(h) > 0 && len(res.Options) < m {
		e, h = oruPop(h)
		c := &ix.Cells[e.cell]
		adds := c.Opt != NoOption && int(c.Level) <= k && !qs.optSeen.get(c.Opt)
		if adds && !e.exact {
			d := ix.RowsInto(e.cell).DistanceTo(x)
			res.Stats.LPCalls++
			h = oruPush(h, oruEntry{cell: e.cell, dist: d, exact: true})
			continue
		}
		res.Stats.VisitedCells++
		if err := checkCtx(ctx, res.Stats.VisitedCells); err != nil {
			return res, err
		}
		if adds {
			qs.optSeen.set(c.Opt)
			res.Options = append(res.Options, c.Opt)
			res.Rho = e.dist
			if len(res.Options) >= m {
				break
			}
		}
		if int(c.Level)+1 > k {
			continue
		}
		for _, ch := range ix.childrenOf(e.cell) {
			if qs.visited.get(ch) {
				continue
			}
			qs.visited.set(ch)
			lb := maxViolation(ix.RowsInto(ch), x)
			h = oruPush(h, oruEntry{cell: ch, dist: lb})
		}
	}
	return res, nil
}

// TopK answers a classic top-k point query (type DD) by descending the DAG
// through the cell containing the reduced weight x at each level. The
// result is in rank order at x: the options are collected along the walk
// itself, because a merged cell's result set is order-free (the internal
// ranking of R varies across the cell's region).
//
// Point location needs no geometry at all: the children of the current
// cell enumerate every option that can hold the next rank inside it
// (Corollary 1), and the child containing x is precisely the one whose
// option scores highest at x. Each level is one scan of children's scores.
func (ix *Index) TopK(x []float64, k int) ([]int32, QueryStats) {
	_, out, st, _ := ix.TopKCtx(context.Background(), x, k)
	return out, st
}

// TopKCtx is TopK with cancellation checks between cell visits, also
// returning the chain key of the cells walked (see locate.go). When the walk
// is abandoned it returns the context's error together with the ranks
// resolved so far and the QueryStats accumulated up to the abandonment.
func (ix *Index) TopKCtx(ctx context.Context, x []float64, k int) (key uint64, out []int32, st QueryStats, err error) {
	if k > ix.Tau {
		return 0, nil, st, ErrBeyondTau
	}
	// One descent serves both: LocateTopK is this walk plus the chain key.
	key, _, out, st, err = ix.LocateTopK(ctx, x, k, make([]int32, 0, max(k, 0)))
	return key, out, st, err
}

func maxViolation(rows geom.Rows, x []float64) float64 {
	worst := 0.0
	for _, h := range rows {
		if v := h.Eval(x); v > worst {
			worst = v
		}
	}
	return worst
}

// MaxRank returns the best (smallest) rank the focal option attains
// anywhere in preference space, or -1 when the option never ranks within
// τ. The shallowest level holding a cell with the focal option is the answer
// ([31]), and that cell is the option's first entry in the option→cells
// column: one entry read, VisitedCells 1 (0 for an option with no cell).
func (ix *Index) MaxRank(focal int32) (int, QueryStats) {
	rank, st, _ := ix.MaxRankCtx(context.Background(), focal)
	return rank, st
}

// MaxRankCtx is MaxRank under a context. It polls ctx once, before the
// lookup; a canceled context yields the context's error and zero stats (the
// rank is meaningless then).
func (ix *Index) MaxRankCtx(ctx context.Context, focal int32) (int, QueryStats, error) {
	var st QueryStats
	if err := ctx.Err(); err != nil {
		return 0, st, err
	}
	cells := ix.focalCells(focal, ix.Tau)
	if len(cells) == 0 {
		return -1, st, nil
	}
	st.VisitedCells = 1
	return int(ix.Cells[cells[0]].Level), st, nil
}

// WhyNotResult explains why an option is not in a user's top-k (the
// why-not query of §4's discussion).
type WhyNotResult struct {
	// RankAtW is the option's actual rank at the query weight among the
	// filtered options (1-based).
	RankAtW int
	// InTopK reports whether the option already ranks top-k at w.
	InTopK bool
	// NearestDist is the smallest preference-space perturbation that puts
	// the option into the top-k (0 when InTopK); -1 when no qualifying
	// region exists within τ.
	NearestDist float64
	// NearestCell is the qualifying cell realizing NearestDist: among
	// equally near cells, the first in kSPR order (ascending level, id).
	NearestCell int32
	// NearestPoint is the reduced weight vector realizing NearestDist (nil
	// when no qualifying region exists).
	NearestPoint []float64
	Stats        QueryStats
}

// WhyNot explains why the focal option is (or is not) in the top-k at the
// reduced weight x, and how far the user's weights must move to change
// that: the distance from x to the nearest kSPR region of the option.
func (ix *Index) WhyNot(focal int32, x []float64, k int) *WhyNotResult {
	res, _ := ix.WhyNotCtx(context.Background(), focal, x, k)
	return res
}

// WhyNotCtx is WhyNot with cancellation checks before the kSPR lookup and
// between region projections. When the query is abandoned it returns the
// context's error together with the partial result, whose Stats reflect
// the work done up to the abandonment.
func (ix *Index) WhyNotCtx(ctx context.Context, focal int32, x []float64, k int) (*WhyNotResult, error) {
	res := &WhyNotResult{NearestCell: -1, NearestDist: -1}
	scoreF := geom.Score(ix.Pts[focal], x)
	rank := 1
	for i := range ix.Pts {
		if int32(i) != focal && geom.Score(ix.Pts[i], x) > scoreF {
			rank++
		}
	}
	res.RankAtW = rank
	res.InTopK = rank <= k
	kspr, err := ix.KSPRCtx(ctx, k, focal)
	res.Stats = kspr.Stats
	if err != nil {
		return res, err
	}
	qs := getScratch(ix.RDim())
	defer putScratch(qs)
	for _, id := range kspr.Cells {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		d := ix.RowsInto(id).DistanceTo(x)
		res.Stats.LPCalls++
		if res.NearestCell < 0 || d < res.NearestDist {
			res.NearestCell, res.NearestDist = id, d
		}
	}
	if res.NearestCell >= 0 {
		res.NearestPoint, _ = ix.RowsInto(res.NearestCell).Project(x)
	}
	if res.InTopK {
		res.NearestDist = 0
	}
	return res, nil
}

// Interval is a 1-dimensional preference segment [Lo, Hi] (reduced
// coordinate w[1]) — the answer shape of the monochromatic reverse top-k
// query on 2-attribute datasets.
type Interval struct {
	Lo, Hi float64
}

// MonoRTopK answers the monochromatic reverse top-k query [42] for
// 2-attribute datasets: the maximal segments of w[1] ∈ [0,1] in which the
// focal option ranks top-k. It is the 1-dimensional reading of kSPR
// (Problem 2 generalizes it); overlapping or touching cell intervals are
// merged. Returns nil for d != 2.
func (ix *Index) MonoRTopK(k int, focal int32) ([]Interval, QueryStats) {
	segs, st, _ := ix.MonoRTopKCtx(context.Background(), k, focal)
	return segs, st
}

// MonoRTopKCtx is MonoRTopK with cancellation checks before the kSPR lookup
// and between interval projections. When the query is abandoned it returns the
// context's error together with the partial QueryStats (the intervals are
// incomplete and only cover the cells projected so far).
func (ix *Index) MonoRTopKCtx(ctx context.Context, k int, focal int32) ([]Interval, QueryStats, error) {
	var st QueryStats
	if ix.RDim() != 1 {
		return nil, st, nil
	}
	res, err := ix.KSPRCtx(ctx, k, focal)
	st = res.Stats
	if err != nil {
		return nil, st, err
	}
	segs := make([]Interval, 0, len(res.Cells))
	qs := getScratch(ix.RDim())
	defer putScratch(qs)
	for _, id := range res.Cells {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		rows := ix.RowsInto(id)
		lo, _ := rows.Project([]float64{-1})
		hi, _ := rows.Project([]float64{2})
		segs = append(segs, Interval{Lo: lo[0], Hi: hi[0]})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].Lo < segs[b].Lo })
	var out []Interval
	for _, s := range segs {
		if len(out) > 0 && s.Lo <= out[len(out)-1].Hi+1e-9 {
			if s.Hi > out[len(out)-1].Hi {
				out[len(out)-1].Hi = s.Hi
			}
			continue
		}
		out = append(out, s)
	}
	return out, st, nil
}
