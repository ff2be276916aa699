package index

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tlevelindex/datagen"
	"tlevelindex/internal/geom"
)

// polygonCell is a d=3 cell prepared for exhaustive point distances: its
// halfspaces and every pairwise intersection of their boundary lines that
// lies in the cell. The nearest point of a convex polygon to x is x, the
// foot of x on an edge line, or a vertex, so the smallest feasible one of
// those is the distance — no projection kernel involved.
type polygonCell struct {
	reg   *geom.Region
	verts [][]float64
}

const polygonFeas = 1e-11

func newPolygonCell(reg *geom.Region) polygonCell {
	pc := polygonCell{reg: reg}
	for i, h := range reg.HS {
		for _, g := range reg.HS[:i] {
			det := h.A[0]*g.A[1] - h.A[1]*g.A[0]
			if math.Abs(det) < 1e-14 {
				continue
			}
			v := []float64{(h.B*g.A[1] - g.B*h.A[1]) / det, (h.A[0]*g.B - g.A[0]*h.B) / det}
			if reg.ContainsPoint(v, polygonFeas) {
				pc.verts = append(pc.verts, v)
			}
		}
	}
	return pc
}

func (pc polygonCell) distance(x []float64) float64 {
	if pc.reg.ContainsPoint(x, polygonFeas) {
		return 0
	}
	best := math.Inf(1)
	for _, v := range pc.verts {
		best = math.Min(best, geom.Dist(x, v))
	}
	foot := make([]float64, 2)
	for _, h := range pc.reg.HS {
		e := h.Eval(x)
		if e <= 0 || e >= best {
			continue // the foot on a satisfied halfspace's line is never the nearest point
		}
		foot[0], foot[1] = x[0]-e*h.A[0], x[1]-e*h.A[1]
		if pc.reg.ContainsPoint(foot, polygonFeas) {
			best = e
		}
	}
	return best
}

// TestORUAgainstPolygonOracle holds ORU's option set and radius to an oracle
// that shares no code with the projection kernel. baseline.ORU cannot play
// that part — it calls the same Region.Project — and it was blind to the
// kernel this one replaced returning an unconverged iterate on thin cells:
// an under-reported ρ, now and then a wrong option.
func TestORUAgainstPolygonOracle(t *testing.T) {
	const n, tau, draws = 4000, 8, 400
	ix := buildOrFail(t, datagen.Generate(datagen.IND, n, 3, 26), Config{Tau: tau})
	cells := make(map[int32]polygonCell)
	for l := 1; l <= tau; l++ {
		for _, id := range ix.Levels[l] {
			cells[id] = newPolygonCell(ix.Region(id))
		}
	}
	rng := rand.New(rand.NewSource(26))
	checked := 0
	for draw := 0; draw < draws; draw++ {
		k := 1 + rng.Intn(tau)
		x := geom.Reduce(datagen.Preferences(datagen.PrefUniform, 1, 3, rng.Int63())[0])
		minDist := make(map[int32]float64)
		for l := 1; l <= k; l++ {
			for _, id := range ix.Levels[l] {
				d := cells[id].distance(x)
				if cur, ok := minDist[ix.Cells[id].Opt]; !ok || d < cur {
					minDist[ix.Cells[id].Opt] = d
				}
			}
		}
		type optDist struct {
			opt int32
			d   float64
		}
		all := make([]optDist, 0, len(minDist))
		for o, d := range minDist {
			all = append(all, optDist{o, d})
		}
		sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
		m := min(k+rng.Intn(tau+5), len(all))
		if m < len(all) && all[m].d-all[m-1].d < 1e-9 {
			continue // the m-th option is a tie: either set is right
		}
		checked++
		res, err := ix.ORUCtx(context.Background(), k, x, m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Rho-all[m-1].d) > 1e-9 {
			t.Errorf("draw %d (k=%d m=%d x=%v): rho %.12g, oracle %.12g", draw, k, m, x, res.Rho, all[m-1].d)
		}
		got := append([]int32(nil), res.Options...)
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		want := make([]int32, m)
		for i := range want {
			want[i] = all[i].opt
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if len(got) != m {
			t.Errorf("draw %d (k=%d m=%d): %d options reported", draw, k, m, len(got))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("draw %d (k=%d m=%d x=%v): options %v, oracle %v", draw, k, m, x, got, want)
				break
			}
		}
	}
	t.Logf("%d of %d draws decidable", checked, draws)
	if checked < 200 {
		t.Fatalf("only %d draws were decidable", checked)
	}
}

// TestMonoRTopKExactEndpoints: in d=2 a cell is an interval between two
// score crossings, so every endpoint MonoRTopK reports — each the projection
// of a point outside [0,1] onto a cell, the kernel's Dim = 1 case of two
// opposed constraints — is 0, 1, or the abscissa at which two options tie.
func TestMonoRTopKExactEndpoints(t *testing.T) {
	const tau = 5
	ix := buildOrFail(t, datagen.Generate(datagen.ANTI, 1000, 2, 26), Config{Tau: tau})
	crossings := []float64{0, 1}
	for i, ri := range ix.Pts {
		for _, rj := range ix.Pts[:i] {
			// Score(r, x) = r[1] + (r[0]−r[1])·x.
			if den := (ri[0] - ri[1]) - (rj[0] - rj[1]); den != 0 {
				crossings = append(crossings, (rj[1]-ri[1])/den)
			}
		}
	}
	sort.Float64s(crossings)
	endpoints := 0
	for q := 0; q < tau*len(ix.Pts); q++ {
		k, focal := 1+q%tau, q/tau
		segs, _, err := ix.MonoRTopKCtx(context.Background(), k, int32(focal))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs {
			for _, e := range []float64{s.Lo, s.Hi} {
				i := sort.SearchFloat64s(crossings, e)
				gap := math.Inf(1)
				if i < len(crossings) {
					gap = crossings[i] - e
				}
				if i > 0 {
					gap = math.Min(gap, e-crossings[i-1])
				}
				if gap > 1e-12 {
					t.Fatalf("focal %d: endpoint %.17g is %g from the nearest crossing", focal, e, gap)
				}
				endpoints++
			}
		}
	}
	if endpoints < 100 {
		t.Fatalf("only %d endpoints checked", endpoints)
	}
}

// TestWhyNotProjectsOnce: WhyNot ranks the qualifying cells by distance alone
// and materializes one projected point, the winner's, however many qualify.
func TestWhyNotProjectsOnce(t *testing.T) {
	const tau = 4
	ix := buildOrFail(t, datagen.Generate(datagen.IND, 600, 3, 26), Config{Tau: tau})
	x := []float64{0.05, 0.9}
	allocs := func(focal int32) float64 {
		return testing.AllocsPerRun(20, func() { ix.WhyNot(focal, x, tau) })
	}
	var few, many int32 = -1, -1
	fewCells, manyCells := 1, 9
	for f := range ix.Pts {
		if ix.WhyNot(int32(f), x, tau).InTopK {
			continue
		}
		switch n := len(ix.KSPR(tau, int32(f)).Cells); {
		case n == fewCells && few < 0:
			few = int32(f)
		case n > manyCells:
			many, manyCells = int32(f), n
		}
	}
	if few < 0 || many < 0 {
		t.Fatal("no focal with one qualifying cell, or none with ten")
	}
	res := ix.WhyNot(many, x, tau)
	if res.InTopK || res.NearestPoint == nil {
		t.Fatalf("focal %d: %+v, want a miss with a nearest point", many, res)
	}
	reg := ix.Region(res.NearestCell)
	if !reg.ContainsPoint(res.NearestPoint, 1e-12) || math.Abs(geom.Dist(x, res.NearestPoint)-res.NearestDist) > 1e-12 {
		t.Fatalf("nearest point %v is not in cell %d at distance %g", res.NearestPoint, res.NearestCell, res.NearestDist)
	}
	for _, id := range ix.KSPR(tau, many).Cells {
		if d := ix.Region(id).DistanceTo(x); d < res.NearestDist {
			t.Fatalf("cell %d at %g is nearer than the reported %g", id, d, res.NearestDist)
		}
	}
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; allocation counts are meaningless")
	}
	// KSPR's own allocations grow with the cells it reports; the projection
	// must add the same single point to both.
	ksprAllocs := func(focal int32) float64 {
		return testing.AllocsPerRun(20, func() { ix.KSPR(tau, focal) })
	}
	if extraFew, extraMany := allocs(few)-ksprAllocs(few), allocs(many)-ksprAllocs(many); extraMany != extraFew {
		t.Fatalf("WhyNot allocates %v beyond KSPR with %d qualifying cells, %v with %d",
			extraMany, manyCells, extraFew, fewCells)
	}
}
