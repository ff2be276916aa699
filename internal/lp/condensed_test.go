package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// lpShape names what a generated problem is built to be.
type lpShape int

const (
	shapeBounded   lpShape = iota // interior point, boxed: Optimal
	shapeUnbounded                // interior point, e_0 a recession direction, c_0 > 0: Unbounded
	shapeSlab                     // bounded plus a slab u·x ∈ [β+gap, β]: Optimal for gap ≤ 0, else empty
	shapeBelowZero                // origin-feasible plus u·x ≤ −δ with u ≥ 0: empty by exactly δ
	numShapes
)

func unitRow(rng *rand.Rand, n int) []float64 {
	row := make([]float64, n)
	norm := 0.0
	for j := range row {
		row[j] = rng.NormFloat64()
		norm += row[j] * row[j]
	}
	norm = math.Sqrt(norm)
	for j := range row {
		row[j] /= norm
	}
	return row
}

// mixedLP draws a problem of the given shape with m random unit rows around
// an interior point x* ∈ [0.5, 2]^n, so that about half of them have a
// negative rhs and phase 1 has work to do, then duplicates some rows and
// adds parallel ones (same normal, looser rhs; a scaled copy).
func mixedLP(rng *rand.Rand, shape lpShape, n, m int, gap float64) Problem {
	p := Problem{C: make([]float64, n)}
	for j := range p.C {
		p.C[j] = rng.NormFloat64()
	}
	add := func(row []float64, b float64) {
		p.A = append(p.A, row)
		p.B = append(p.B, b)
	}
	xs := make([]float64, n)
	if shape != shapeBelowZero {
		for j := range xs {
			xs[j] = 0.5 + 1.5*rng.Float64()
		}
	}
	for i := 0; i < m; i++ {
		row := unitRow(rng, n)
		if shape == shapeUnbounded {
			row[0] = -math.Abs(row[0])
		}
		add(row, dotAt(row, xs)+0.05+rng.Float64())
	}
	for k := 0; k < 1+m/8; k++ {
		i := rng.Intn(m)
		switch rng.Intn(3) {
		case 0:
			add(p.A[i], p.B[i])
		case 1:
			add(p.A[i], p.B[i]+rng.Float64())
		default:
			row := make([]float64, n)
			for j, v := range p.A[i] {
				row[j] = 2 * v
			}
			add(row, 2*p.B[i])
		}
	}
	switch shape {
	case shapeUnbounded:
		p.C[0] = 1 + rng.Float64()
		return p
	case shapeSlab:
		u := unitRow(rng, n)
		neg := make([]float64, n)
		for j, v := range u {
			neg[j] = -v
		}
		beta := dotAt(u, xs)
		add(u, beta)
		add(neg, -(beta + gap))
	case shapeBelowZero:
		u := unitRow(rng, n)
		for j := range u {
			u[j] = math.Abs(u[j])
		}
		add(u, -gap)
	}
	for j := 0; j < n; j++ {
		row := make([]float64, n)
		row[j] = 1
		add(row, 4)
	}
	return p
}

// checkAgainstReference solves p on both kernels. exact says the feasible
// set is a real one, neither empty nor kept alive by feasTol alone: only
// then are the optimum and its feasibility properties of the problem and
// not of the path phase 1 took to a basis that is infeasible by up to
// feasTol; otherwise the verdict is all there is to compare.
func checkAgainstReference(t *testing.T, name string, p Problem, want Status, exact bool) {
	t.Helper()
	ref := refSolve(p)
	got, err := Solve(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if ref.Status != want {
		t.Fatalf("%s: reference status %v, built to be %v", name, ref.Status, want)
	}
	if got.Status != ref.Status {
		t.Fatalf("%s: status %v, reference %v", name, got.Status, ref.Status)
	}
	if got.Status != Optimal || !exact {
		return
	}
	if !approx(got.Objective, ref.Objective, 1e-8) {
		t.Fatalf("%s: objective %v, reference %v", name, got.Objective, ref.Objective)
	}
	for j, v := range got.X {
		if v < -1e-9 {
			t.Fatalf("%s: X[%d] = %v < 0", name, j, v)
		}
	}
	for i, row := range p.A {
		if over := dotAt(row, got.X) - p.B[i]; over > 1e-7 {
			t.Fatalf("%s: row %d of %d violated by %v", name, i, len(p.A), over)
		}
	}
}

// TestCondensedMatchesReference holds the condensed kernel to the dense one
// it replaced on the problems the old generator never drew: negative rhs
// (phase 1 runs), duplicated and parallel rows, unbounded directions, and
// sets that are empty or nonempty by a hair either side of feasTol.
func TestCondensedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// With the origin feasible there is no phase 1 to differ in: pricing and
	// both tie-breaks are the dense kernel's, so the pivots are, and the
	// results agree to the last bit.
	for trial := 0; trial < 300; trial++ {
		p := feasibleOrigin(rng, 1+rng.Intn(8), 1+rng.Intn(200))
		ref := refSolve(p)
		got, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != ref.Status || got.Objective != ref.Objective || !slices.Equal(got.X, ref.X) {
			t.Fatalf("origin-feasible trial %d: %v %v at %v, reference %v %v at %v",
				trial, got.Status, got.Objective, got.X, ref.Status, ref.Objective, ref.X)
		}
	}
	// The dense tableau of a 2000-row problem is ~50 MB and each pivot walks
	// all of it, so the tall problems are few and the small ones many.
	sizes := []struct{ trials, minM, maxM int }{{600, 1, 40}, {40, 41, 400}, {2, 1500, 2000}}
	if raceEnabled {
		sizes = sizes[:2]
	}
	for _, sz := range sizes {
		for trial := 0; trial < sz.trials; trial++ {
			n := 1 + rng.Intn(8)
			m := sz.minM + rng.Intn(sz.maxM-sz.minM+1)
			shape := lpShape(trial % int(numShapes))
			name := func(s string) string { return fmt.Sprintf("%s n=%d m=%d trial=%d", s, n, m, trial) }
			switch shape {
			case shapeBounded:
				checkAgainstReference(t, name("bounded"), mixedLP(rng, shape, n, m, 0), Optimal, true)
			case shapeUnbounded:
				checkAgainstReference(t, name("unbounded"), mixedLP(rng, shape, n, m, 0), Unbounded, true)
			case shapeSlab:
				// A slab |gap| thick, or two faces that miss each other by gap.
				// The kernels measure a miss differently (summed over rows
				// against the largest single row), but call 1e-6 empty and
				// 1e-8 not.
				gap := []float64{-1e-6, -1e-8, 1e-8, 1e-6}[rng.Intn(4)]
				want := Optimal
				if gap > feasTol {
					want = Infeasible
				}
				checkAgainstReference(t, name("slab"), mixedLP(rng, shape, n, m, gap), want, gap <= 0)
			case shapeBelowZero:
				// Empty by δ against x ≥ 0, which no artificial relaxes: both
				// kernels measure exactly δ, so they must agree right up to
				// feasTol from either side.
				delta := feasTol + []float64{-1e-6, -1e-8, 1e-8, 1e-6}[rng.Intn(4)]
				want := Optimal
				if delta > feasTol {
					want = Infeasible
				}
				checkAgainstReference(t, name("below-zero"), mixedLP(rng, shape, n, m, delta), want, delta <= 0)
			}
		}
	}
}
