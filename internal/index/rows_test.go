package index

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"tlevelindex/datagen"
	"tlevelindex/internal/geom"
)

// The references below are earlier versions of the code, kept so that
// nothing under test vouches for itself: refPrefHalfspace is the allocating
// PrefHalfspace (own arithmetic, NewHalfspace's normalisation),
// refRegionInto the regionIntoBuf enumeration over it, refUTKCtx the
// level-by-level walk UTK made before the box column, and refORUCtx the
// traversal body verbatim — a full Region per visit, samples before
// separation.

func refPrefHalfspace(ri, rj []float64) geom.Halfspace {
	d := len(ri)
	dim := d - 1
	last := ri[d-1] - rj[d-1]
	a := make([]float64, dim)
	for k := 0; k < dim; k++ {
		a[k] = -((ri[k] - rj[k]) - last)
	}
	return geom.NewHalfspace(a, last)
}

func (ix *Index) refRegionInto(id int32, reg *geom.Region, buf *[]int32) *geom.Region {
	c := &ix.Cells[id]
	reg.Reset(ix.RDim())
	if c.Opt == NoOption {
		return reg
	}
	r := ix.resultSetInto(id, *buf)
	*buf = r
	opt := ix.Pts[c.Opt]
	for _, j := range r[:len(r)-1] {
		reg.Add(refPrefHalfspace(ix.Pts[j], opt)) // S_j >= S_opt
	}
	if bound, isNil := ix.boundOf(id); !isNil {
		for _, b := range bound {
			reg.Add(refPrefHalfspace(opt, ix.Pts[b])) // S_opt >= S_b
		}
		return reg
	}
	for j := int32(0); int(j) < len(ix.Pts); j++ {
		if !containsID(r, j) {
			reg.Add(refPrefHalfspace(opt, ix.Pts[j]))
		}
	}
	return reg
}

func (ix *Index) refUTKCtx(ctx context.Context, k int, box geom.Box) (*UTKResult, error) {
	res := &UTKResult{}
	if k > ix.Tau {
		return res, ErrBeyondTau
	}
	qs := getScratch(ix.RDim())
	defer putScratch(qs)
	boxHS := qs.boxHalfspaces(box)
	samples := qs.boxSamples(box)
	qs.visited.reset(len(ix.Cells))
	frontier := []int32{ix.Root()}
	var next []int32
	for l := 1; l <= k; l++ {
		next = next[:0]
		for _, id := range frontier {
			for _, ch := range ix.childrenOf(id) {
				if qs.visited.get(ch) {
					continue
				}
				qs.visited.set(ch)
				res.Stats.VisitedCells++
				if err := checkCtx(ctx, res.Stats.VisitedCells); err != nil {
					return res, err
				}
				reg := ix.refRegionInto(ch, qs.reg, &qs.rset)
				hit := false
				for _, s := range samples {
					if reg.ContainsPoint(s, -1e-9) {
						hit = true
						break
					}
				}
				if !hit && !refSeparatedFromBox(reg, box) {
					reg.Add(boxHS...)
					res.Stats.LPCalls++
					hit = reg.Feasible()
				}
				if hit {
					next = append(next, ch)
				}
			}
		}
		frontier, next = next, frontier
		if len(frontier) == 0 {
			break
		}
	}
	qs.optSeen.reset(len(ix.Pts))
	opts := qs.opts[:0]
	defer func() { qs.opts = opts[:0] }()
	for _, id := range frontier {
		r := ix.ResultSet(id)
		for _, v := range r {
			if !qs.optSeen.get(v) {
				qs.optSeen.set(v)
				opts = append(opts, v)
			}
		}
		res.Partitions = append(res.Partitions, UTKPartition{Cell: id, TopK: r})
	}
	slices.Sort(opts)
	res.Options = make([]int32, len(opts))
	copy(res.Options, opts)
	return res, nil
}

func refSeparatedFromBox(reg *geom.Region, box geom.Box) bool {
	for _, h := range reg.HS {
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

func (ix *Index) refORUCtx(ctx context.Context, k int, x []float64, m int) (*ORUResult, error) {
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
		if !e.exact {
			d := ix.refRegionInto(e.cell, qs.reg, &qs.rset).DistanceTo(x)
			res.Stats.LPCalls++
			h = oruPush(h, oruEntry{cell: e.cell, dist: d, exact: true})
			continue
		}
		res.Stats.VisitedCells++
		if err := checkCtx(ctx, res.Stats.VisitedCells); err != nil {
			return res, err
		}
		c := &ix.Cells[e.cell]
		if c.Opt != NoOption && int(c.Level) <= k && !qs.optSeen.get(c.Opt) {
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
			lb := refMaxViolation(ix.refRegionInto(ch, qs.reg, &qs.rset), x)
			h = oruPush(h, oruEntry{cell: ch, dist: lb})
		}
	}
	return res, nil
}

func refMaxViolation(reg *geom.Region, x []float64) float64 {
	worst := 0.0
	for _, h := range reg.HS {
		if v := h.Eval(x); v > worst {
			worst = v
		}
	}
	return worst
}

// sameRows reports whether two row lists agree in count, order and bits.
func sameRows(a, b []geom.Halfspace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].B) != math.Float64bits(b[i].B) || len(a[i].A) != len(b[i].A) {
			return false
		}
		for j := range a[i].A {
			if math.Float64bits(a[i].A[j]) != math.Float64bits(b[i].A[j]) {
				return false
			}
		}
	}
	return true
}

// checkCellRows holds every live cell's rows — RowsInto, the path the
// queries and the answer exports use — to the reference region, and
// regionIntoBuf with them. Every live cell must come out of its level's
// slab of the rows column, by address. It returns how many cells carry
// fewer rows than halfspaces were added, i.e. went through the dedup
// branch.
func checkCellRows(t *testing.T, ix *Index, stage string) (deduped int) {
	t.Helper()
	ref, reg := geom.NewRegion(ix.RDim()), geom.NewRegion(ix.RDim())
	var rset []int32
	for i := range ix.Cells {
		id, l := int32(i), ix.Cells[i].Level
		if l < 0 {
			continue
		}
		want := ix.refRegionInto(id, ref, &rset).HS
		if got := ix.regionIntoBuf(id, reg, &rset).HS; !sameRows(got, want) {
			t.Fatalf("%s: cell %d: regionIntoBuf rows differ from the reference\n got %v\nwant %v", stage, id, got, want)
		}
		got := ix.RowsInto(id)
		if !sameRows(got, want) {
			t.Fatalf("%s: cell %d (level %d): RowsInto differs from the reference\n got %v\nwant %v",
				stage, id, l, got, want)
		}
		if !inSlab(got, ix.flat.levels[l].rows) {
			t.Fatalf("%s: cell %d (level %d): rows not served from the rows column", stage, id, l)
		}
		if len(want) < ix.RDim()+1+ix.HyperplaneCount(id) {
			deduped++
		}
	}
	return deduped
}

// inSlab reports whether rows is a non-empty window of slab.
func inSlab(rows, slab geom.Rows) bool {
	if len(rows) == 0 || len(slab) == 0 {
		return false
	}
	start := uintptr(unsafe.Pointer(&slab[0]))
	p := uintptr(unsafe.Pointer(&rows[0]))
	return p >= start && p+uintptr(len(rows))*unsafe.Sizeof(rows[0]) <= start+uintptr(len(slab))*unsafe.Sizeof(rows[0])
}

// checkUnfilled fails unless ix is frozen with every level of its rows and
// box columns still empty: freezing, loading and publishing fill nothing.
func checkUnfilled(t *testing.T, ix *Index, stage string) {
	t.Helper()
	if ix.flat == nil {
		t.Fatalf("%s: index not frozen", stage)
	}
	for l := range ix.flat.levels {
		if lc := &ix.flat.levels[l]; lc.rows != nil || lc.box != nil {
			t.Fatalf("%s: level %d of the columns filled before any query", stage, l)
		}
	}
}

// level1RowsByOpt snapshots the level-1 rows keyed by each cell's option.
func level1RowsByOpt(ix *Index) map[int32][]geom.Halfspace {
	out := make(map[int32][]geom.Halfspace)
	for _, id := range ix.Levels[1] {
		out[ix.Cells[id].Opt] = ix.RowsInto(id)
	}
	return out
}

// TestCellRowsIdentity: the bare rows equal the region's halfspaces for
// every builder and dimension, and stay equal across every lifecycle step
// that rebuilds or drops the rows column, which none of those steps fills.
func TestCellRowsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2701))
	changed := 0
	for _, alg := range []Algorithm{PBAPlus, PBA, IBA, BSL} {
		for d := 2; d <= 4; d++ {
			n, tau := 40, 4
			if d == 4 {
				n, tau = 16, 3 // BSL and IBA at d=4 are the slow corner
			}
			data := randData(rng, n, d)
			ix := buildOrFail(t, data, Config{Algorithm: alg, Tau: tau})
			stage := alg.String() + " d=" + string(rune('0'+d))
			checkUnfilled(t, ix, stage+" built")
			checkCellRows(t, ix, stage+" built")

			// Options near the top corner are accepted, take rank 1 somewhere
			// and join the bound sets of the other level-1 cells.
			before := level1RowsByOpt(ix)
			batch := make([][]float64, 3)
			for i := range batch {
				batch[i] = make([]float64, d)
				for j := range batch[i] {
					batch[i][j] = 0.9 + 0.1*rng.Float64()
				}
			}
			if _, errs, _ := insertBatch(ix, batch); slices.ContainsFunc(errs, func(e error) bool { return e != nil }) {
				t.Fatalf("%s: insert: %v", stage, errs)
			}
			checkUnfilled(t, ix, stage+" after InsertBatch")
			for opt, rows := range level1RowsByOpt(ix) {
				if old, ok := before[opt]; ok && !sameRows(old, rows) {
					changed++
				}
			}
			checkCellRows(t, ix, stage+" after InsertBatch")

			var snap bytes.Buffer
			if _, err := ix.WriteTo(&snap); err != nil {
				t.Fatal(err)
			}
			heap, err := Read(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			checkUnfilled(t, heap, stage+" after Read")
			checkCellRows(t, heap, stage+" after Read")
			path := filepath.Join(t.TempDir(), "snap.tlx")
			if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			mapped, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			checkUnfilled(t, mapped, stage+" after OpenFile")
			checkCellRows(t, mapped, stage+" after OpenFile")
			if err := mapped.CloseBacking(); err != nil {
				t.Fatal(err)
			}

			// ExtendTau gets a build of its own; it grows Pts, and with it
			// every Definition-2 bound.
			ext := buildOrFail(t, data, Config{Algorithm: alg, Tau: tau})
			if err := ext.ExtendTau(tau + 1); err != nil {
				t.Fatal(err)
			}
			if len(ext.Levels[tau+1]) == 0 {
				t.Fatalf("%s: no cells beyond τ", stage)
			}
			checkUnfilled(t, ext, stage+" extended")
			checkCellRows(t, ext, stage+" extended")
		}
	}
	if changed == 0 {
		t.Fatal("no insert changed a level-1 cell's rows: a stale column would pass")
	}

	// The builders drop exact duplicates before they partition, so identical
	// rows come from collinear options instead: with b₁ the midpoint of opt
	// and b₂ on a dyadic grid, H⁺(opt, b₂) is H⁺(opt, b₁) scaled by exactly
	// two and normalises to the same bits. Only a Definition-2 bound can hold
	// both, so the builder is IBA; assembly must drop the repeat the way
	// Region.Add does.
	grid := make([][]float64, 60)
	for i := range grid {
		grid[i] = []float64{float64(rng.Intn(9)) / 8, float64(rng.Intn(9)) / 8, float64(rng.Intn(9)) / 8}
	}
	ix := buildOrFail(t, grid, Config{Algorithm: IBA, Tau: 4})
	if checkCellRows(t, ix, "IBA grid") == 0 {
		t.Fatal("collinear grid options, but no cell lost a row to dedup")
	}
}

// cellVertex returns a vertex of the cell — the point where RDim of its rows
// are tight, chosen by rng — or nil when the draw is degenerate.
func cellVertex(ix *Index, id int32, rng *rand.Rand) []float64 {
	rows := ix.RowsInto(id)
	dim := ix.RDim()
	for try := 0; try < 20; try++ {
		pick := rng.Perm(len(rows))[:dim]
		// Gaussian elimination with partial pivoting on [A | B].
		m := make([][]float64, dim)
		for i, p := range pick {
			m[i] = append(append([]float64(nil), rows[p].A...), rows[p].B)
		}
		ok := true
		for c := 0; c < dim && ok; c++ {
			p := c
			for r := c + 1; r < dim; r++ {
				if math.Abs(m[r][c]) > math.Abs(m[p][c]) {
					p = r
				}
			}
			m[c], m[p] = m[p], m[c]
			if math.Abs(m[c][c]) < 1e-9 {
				ok = false
				break
			}
			for r := 0; r < dim; r++ {
				if r != c {
					f := m[r][c] / m[c][c]
					for j := c; j <= dim; j++ {
						m[r][j] -= f * m[c][j]
					}
				}
			}
		}
		if !ok {
			continue
		}
		v := make([]float64, dim)
		for i := range v {
			v[i] = m[i][dim] / m[i][i]
		}
		if rows.ContainsPoint(v, 1e-9) {
			return v
		}
	}
	return nil
}

// sameUTKAnswer reports whether two UTK answers agree in Options and in the
// set of partitions with their top-k sets, whatever the partition order and
// the stats.
func sameUTKAnswer(a, b *UTKResult) bool {
	if !slices.Equal(a.Options, b.Options) || len(a.Partitions) != len(b.Partitions) {
		return false
	}
	topk := make(map[int32][]int32, len(a.Partitions))
	for _, p := range a.Partitions {
		topk[p.Cell] = p.TopK
	}
	for _, p := range b.Partitions {
		if r, ok := topk[p.Cell]; !ok || !slices.Equal(r, p.TopK) {
			return false
		}
	}
	return true
}

func equalUTK(a, b *UTKResult) bool {
	if a.Stats != b.Stats || !slices.Equal(a.Options, b.Options) || len(a.Partitions) != len(b.Partitions) {
		return false
	}
	for i := range a.Partitions {
		if a.Partitions[i].Cell != b.Partitions[i].Cell || !slices.Equal(a.Partitions[i].TopK, b.Partitions[i].TopK) {
			return false
		}
	}
	return true
}

// TestTraversalsMatchReference: on a d=3 and a d=4 index,
// over seeded draws that include boxes with a face on the simplex boundary
// (a boundary of every cell along it), boxes cornered on a cell vertex and
// query points on a cell vertex, UTK returns the walk's Options and
// partitions, ORU the reference traversal's Options, Rho (bitwise) and
// QueryStats, and WhyNot the reference's nearest cell, distance and point.
func TestTraversalsMatchReference(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct{ n, d, tau, draws int }{{3000, 3, 7, 1400}, {400, 4, 4, 700}} {
		ix := buildOrFail(t, datagen.Generate(datagen.IND, c.n, c.d, 27), Config{Tau: c.tau})
		rng := rand.New(rand.NewSource(int64(2700 + c.d)))
		dim := ix.RDim()
		live := make([]int32, 0, len(ix.Cells))
		for l := 1; l <= c.tau; l++ {
			live = append(live, ix.Levels[l]...)
		}
		var lps, parts int
		for draw := 0; draw < c.draws; draw++ {
			k := 1 + rng.Intn(c.tau)
			x := randReduced(rng, dim)
			side := []float64{0.03, 0.1, 0.3}[rng.Intn(3)]
			switch draw % 4 {
			case 1: // a cell vertex: x sits on dim boundaries at once
				if v := cellVertex(ix, live[rng.Intn(len(live))], rng); v != nil {
					x = v
				}
			case 2: // a face of the box on the simplex bound x[j] = 0
				x[rng.Intn(dim)] = 0
			}
			lo, hi := make([]float64, dim), make([]float64, dim)
			for j := range lo {
				lo[j] = x[j] // cases 1 and 2 put the vertex / the bound on lo
				if draw%4 == 0 || draw%4 == 3 {
					lo[j] = math.Max(x[j]-side/2, 0)
				}
				hi[j] = lo[j] + side
			}
			box := geom.NewBox(lo, hi)
			got, _ := ix.UTKCtx(ctx, k, box)
			want, _ := ix.refUTKCtx(ctx, k, box)
			if !sameUTKAnswer(got, want) {
				t.Fatalf("d=%d draw %d: UTK(k=%d, %v..%v)\n got %+v\nwant %+v", c.d, draw, k, lo, hi, got, want)
			}
			lps += got.Stats.LPCalls
			parts += len(got.Partitions)

			m := 1 + rng.Intn(c.tau+6)
			gotO, _ := ix.ORUCtx(ctx, k, x, m)
			wantO, _ := ix.refORUCtx(ctx, k, x, m)
			if gotO.Stats != wantO.Stats || !slices.Equal(gotO.Options, wantO.Options) ||
				math.Float64bits(gotO.Rho) != math.Float64bits(wantO.Rho) {
				t.Fatalf("d=%d draw %d: ORU(k=%d, x=%v, m=%d)\n got %+v\nwant %+v", c.d, draw, k, x, m, gotO, wantO)
			}

			if draw%10 != 0 {
				continue
			}
			focal := ix.Cells[live[rng.Intn(len(live))]].Opt
			gotW := ix.WhyNot(focal, x, k)
			cells := ix.KSPR(k, focal).Cells
			if len(cells) == 0 {
				continue
			}
			ref, best, bestD := geom.NewRegion(dim), int32(-1), 0.0
			var rset []int32
			for _, id := range cells {
				if d := ix.refRegionInto(id, ref, &rset).DistanceTo(x); best < 0 || d < bestD {
					best, bestD = id, d
				}
			}
			pt, _ := ix.refRegionInto(best, ref, &rset).Project(x)
			if gotW.InTopK {
				bestD = 0
			}
			if gotW.NearestCell != best || math.Float64bits(gotW.NearestDist) != math.Float64bits(bestD) ||
				!sameRows([]geom.Halfspace{{A: gotW.NearestPoint}}, []geom.Halfspace{{A: pt}}) {
				t.Fatalf("d=%d draw %d: WhyNot(%d, %v, %d) = cell %d dist %v at %v, reference cell %d dist %v at %v",
					c.d, draw, focal, x, k, gotW.NearestCell, gotW.NearestDist, gotW.NearestPoint, best, bestD, pt)
			}
		}
		if lps == 0 || parts == 0 {
			t.Fatalf("d=%d: %d LP visits and %d partitions over %d draws: the draws do not reach the LP path", c.d, lps, parts, c.draws)
		}
	}
}

// TestMonoRTopKMatchesReference: the d=2 reverse top-k intervals are the
// projections of −1 and 2 onto the reference regions, bit for bit.
func TestMonoRTopKMatchesReference(t *testing.T) {
	ix := buildOrFail(t, datagen.Generate(datagen.ANTI, 600, 2, 27), Config{Tau: 5})
	ref := geom.NewRegion(1)
	var rset []int32
	for focal := int32(0); int(focal) < len(ix.Pts); focal++ {
		for k := 1; k <= 5; k += 2 {
			var segs []Interval
			for _, id := range ix.KSPR(k, focal).Cells {
				reg := ix.refRegionInto(id, ref, &rset)
				lo, _ := reg.Project([]float64{-1})
				hi, _ := reg.Project([]float64{2})
				segs = append(segs, Interval{Lo: lo[0], Hi: hi[0]})
			}
			sort.Slice(segs, func(a, b int) bool { return segs[a].Lo < segs[b].Lo })
			var want []Interval
			for _, s := range segs {
				if len(want) > 0 && s.Lo <= want[len(want)-1].Hi+1e-9 {
					want[len(want)-1].Hi = math.Max(want[len(want)-1].Hi, s.Hi)
					continue
				}
				want = append(want, s)
			}
			if got, _ := ix.MonoRTopK(k, focal); !slices.Equal(got, want) {
				t.Fatalf("MonoRTopK(%d, %d) = %v, reference %v", k, focal, got, want)
			}
		}
	}
}
