package index

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tlevelindex/internal/geom"
	"tlevelindex/internal/lp"
)

// utkDraws returns seeded query boxes over the reduced simplex: a side of
// 0.03, 0.1 or 0.3 around a random point, every fourth box with its lo
// corner on a cell vertex and every fourth with a face on the simplex bound
// x[j] = 0, so that cell boundaries run along the box's.
func utkDraws(ix *Index, rng *rand.Rand, n int) []geom.Box {
	dim := ix.RDim()
	var live []int32
	for l := 1; l <= ix.Tau; l++ {
		live = append(live, ix.Levels[l]...)
	}
	out := make([]geom.Box, n)
	for i := range out {
		x := randReduced(rng, dim)
		side := []float64{0.03, 0.1, 0.3}[rng.Intn(3)]
		lo, hi := make([]float64, dim), make([]float64, dim)
		for j := range lo {
			lo[j] = math.Max(x[j]-side/2, 0)
		}
		switch i % 4 {
		case 1:
			if v := cellVertex(ix, live[rng.Intn(len(live))], rng); v != nil {
				copy(lo, v)
			}
		case 2:
			lo[rng.Intn(dim)] = 0
		}
		for j := range hi {
			hi[j] = lo[j] + side
		}
		out[i] = geom.NewBox(lo, hi)
	}
	return out
}

// TestUTKMatchesWalk: the box scan returns the level-by-level walk's
// Options and partition set on every builder at d=2..4 and at every stage
// of an index's life — built, after InsertBatch, after Read and OpenFile
// (columns never filled before), and deepened past τ by ExtendTau.
func TestUTKMatchesWalk(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3601))
	var parts, lps, visited, walked int
	check := func(ix *Index, stage string, ks []int, n int) {
		t.Helper()
		for i, box := range utkDraws(ix, rng, n) {
			k := ks[i%len(ks)]
			got, err := ix.UTKCtx(ctx, k, box)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := ix.refUTKCtx(ctx, k, box)
			if !sameUTKAnswer(got, want) {
				t.Fatalf("%s: UTK(k=%d, %v..%v)\n got %+v\nwant %+v", stage, k, box.Lo, box.Hi, got, want)
			}
			parts += len(got.Partitions)
			lps += got.Stats.LPCalls
			visited += got.Stats.VisitedCells
			walked += want.Stats.VisitedCells
		}
	}
	for _, alg := range []Algorithm{PBAPlus, PBA, IBA, BSL} {
		for d := 2; d <= 4; d++ {
			n, tau := 40, 4
			if d == 4 {
				n, tau = 16, 3 // BSL and IBA at d=4 are the slow corner
			}
			data := randData(rng, n, d)
			ks := make([]int, tau)
			for i := range ks {
				ks[i] = i + 1
			}
			stage := alg.String() + " d=" + string(rune('0'+d))
			ix := buildOrFail(t, data, Config{Algorithm: alg, Tau: tau})
			check(ix, stage+" built", ks, 40)

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
			check(ix, stage+" after InsertBatch", ks, 40)

			var snap bytes.Buffer
			if _, err := ix.WriteTo(&snap); err != nil {
				t.Fatal(err)
			}
			heap, err := Read(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			check(heap, stage+" after Read", ks, 20)
			path := filepath.Join(t.TempDir(), "snap.tlx")
			if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			mapped, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			check(mapped, stage+" after OpenFile", ks, 20)
			if err := mapped.CloseBacking(); err != nil {
				t.Fatal(err)
			}

			// ExtendTau gets a build of its own.
			ext := buildOrFail(t, data, Config{Algorithm: alg, Tau: tau})
			if err := ext.ExtendTau(tau + 1); err != nil {
				t.Fatal(err)
			}
			check(ext, stage+" extended", append(ks, tau+1), 20)
		}
	}
	if parts == 0 || lps == 0 {
		t.Fatalf("%d partitions and %d LPs over every draw: the draws do not reach the LP path", parts, lps)
	}
	t.Logf("box candidates %d, walk visits %d, partitions %d, LPs %d", visited, walked, parts, lps)
}

// polygonVertices returns the vertices of a 2-dimensional cell: the
// pairwise intersections of its rows' boundaries that satisfy every row.
func polygonVertices(rows geom.Rows) [][]float64 {
	var out [][]float64
	for i, a := range rows {
		for _, b := range rows[i+1:] {
			det := a.A[0]*b.A[1] - a.A[1]*b.A[0]
			if math.Abs(det) < 1e-12 {
				continue
			}
			v := []float64{(a.B*b.A[1] - b.B*a.A[1]) / det, (a.A[0]*b.B - b.A[0]*a.B) / det}
			if rows.ContainsPoint(v, 1e-12) {
				out = append(out, v)
			}
		}
	}
	return out
}

// TestCellBoxOuter: every cell's box holds the cell's Chebyshev center and,
// at d=3, every vertex of its polygon, with no tolerance; and each face of
// the box is within 1e-9 of the LP extreme of the cell along that axis, so
// the box is the cell's bounding box and not merely a cover of it. Levels
// past τ are checked on an extended index.
func TestCellBoxOuter(t *testing.T) {
	rng := rand.New(rand.NewSource(3602))
	for _, alg := range []Algorithm{PBAPlus, IBA} {
		for d := 2; d <= 4; d++ {
			n, tau := 60, 4
			if d == 4 {
				n, tau = 24, 3
			}
			ix := buildOrFail(t, randData(rng, n, d), Config{Algorithm: alg, Tau: tau})
			if err := ix.ExtendTau(tau + 1); err != nil {
				t.Fatal(err)
			}
			dim := ix.RDim()
			ws := lp.Get()
			cells, vertices := 0, 0
			for l := 1; l <= tau+1; l++ {
				boxes := ix.levelBoxes(l)
				for i, id := range ix.Levels[l] {
					lo, hi := boxes[2*dim*i:2*dim*i+dim], boxes[2*dim*i+dim:2*dim*(i+1)]
					inside := func(what string, x []float64) {
						t.Helper()
						if !(geom.Box{Lo: lo, Hi: hi}).Contains(x, 0) {
							t.Fatalf("%v d=%d cell %d (level %d): %s %v outside its box %v..%v", alg, d, id, l, what, x, lo, hi)
						}
					}
					x, _, ok := ix.Region(id).ChebyshevCenter()
					if !ok {
						t.Fatalf("%v d=%d cell %d: no interior", alg, d, id)
					}
					inside("Chebyshev center", x)
					rows := ix.RowsInto(id)
					if dim == 2 {
						for _, v := range polygonVertices(rows) {
							inside("vertex", v)
							vertices++
						}
					}
					ws.Begin(dim)
					for _, h := range rows {
						copy(ws.AppendRow(h.B), h.A)
					}
					c := ws.Cost()
					for j := range dim {
						c[j] = 1
						max := ws.SolveMax(c).Objective
						c[j] = -1
						min := -ws.SolveMax(c).Objective
						c[j] = 0
						if math.Abs(hi[j]-max) > 1e-9 || math.Abs(lo[j]-min) > 1e-9 {
							t.Fatalf("%v d=%d cell %d (level %d) axis %d: box [%v, %v], LP extent [%v, %v]",
								alg, d, id, l, j, lo[j], hi[j], min, max)
						}
					}
					cells++
				}
			}
			lp.Put(ws)
			if cells == 0 || (dim == 2 && vertices < 3*cells) {
				t.Fatalf("%v d=%d: %d cells, %d vertices checked", alg, d, cells, vertices)
			}
		}
	}
}
