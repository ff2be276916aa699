package lp_test

import (
	"math"
	"sort"
	"testing"

	"tlevelindex/datagen"
	"tlevelindex/internal/geom"
	"tlevelindex/internal/lp"
	"tlevelindex/internal/skyline"
)

// TestChebyshevShapeMatchesReference compares the kernels on the problem the
// insert path solves: the Chebyshev LP (max t, rows a·x + t ≤ b, cap t ≤ 1)
// of Definition-2 regions over a real IND d=2 τ-skyband. The region of the
// option ranked k-th under a weight x is where the k−1 options above it
// outscore it and it outscores every other — nonempty by construction;
// the same rows with one of the options above moved below have no interior,
// and usually no point at all.
func TestChebyshevShapeMatchesReference(t *testing.T) {
	const tau = 6
	data := datagen.Generate(datagen.IND, 8000, 2, 1)
	var band [][]float64
	for _, id := range skyline.Skyband(data, tau) {
		band = append(band, data[id])
	}
	chebyshev := func(focal []float64, above, below [][]float64) lp.Problem {
		hs := geom.SimplexBounds(1)
		for _, r := range above {
			hs = append(hs, geom.PrefHalfspace(r, focal))
		}
		for _, r := range below {
			hs = append(hs, geom.PrefHalfspace(focal, r))
		}
		p := lp.Problem{C: []float64{0, 1}}
		for _, h := range hs {
			p.A = append(p.A, []float64{h.A[0], 1})
			p.B = append(p.B, h.B)
		}
		p.A = append(p.A, []float64{0, 1})
		p.B = append(p.B, 1)
		return p
	}
	score := func(r []float64, x float64) float64 { return x*r[0] + (1-x)*r[1] }
	for _, x := range []float64{0.03, 0.21, 0.5, 0.77, 0.96} {
		ranked := append([][]float64(nil), band...)
		sort.Slice(ranked, func(i, j int) bool { return score(ranked[i], x) > score(ranked[j], x) })
		for k := 1; k <= tau; k++ {
			cell := chebyshev(ranked[k-1], ranked[:k-1], ranked[k:])
			ref := lp.ReferenceSolve(cell)
			got, err := lp.Solve(cell)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Status != lp.Optimal || ref.X[1] <= geom.InteriorEps {
				t.Fatalf("x=%v k=%d: reference says %v, margin %v; the cell holds x", x, k, ref.Status, ref.X)
			}
			if got.Status != ref.Status || math.Abs(got.Objective-ref.Objective) > 1e-8 {
				t.Fatalf("x=%v k=%d: %v margin %v, reference %v margin %v", x, k, got.Status, got.Objective, ref.Status, ref.Objective)
			}
			if x0 := got.X[0]; math.Abs(x0-ref.X[0]) > 1e-8 {
				t.Fatalf("x=%v k=%d: centre %v, reference %v", x, k, x0, ref.X[0])
			}
			if k == 1 {
				continue
			}
			// The same focal option with the best of its betters demoted.
			swapped := chebyshev(ranked[k-1], ranked[1:k-1], append(ranked[k:len(ranked):len(ranked)], ranked[0]))
			ref = lp.ReferenceSolve(swapped)
			if got, err = lp.Solve(swapped); err != nil {
				t.Fatal(err)
			}
			if got.Status != ref.Status {
				t.Fatalf("x=%v k=%d swapped: status %v, reference %v", x, k, got.Status, ref.Status)
			}
			if got.Status == lp.Optimal && math.Abs(got.Objective-ref.Objective) > 1e-8 {
				t.Fatalf("x=%v k=%d swapped: margin %v, reference %v", x, k, got.Objective, ref.Objective)
			}
		}
	}
}
