package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randTightRegion builds a feasible dim-dimensional region: the simplex plus
// extra halfspaces that all keep an interior point with the given margin.
func randTightRegion(rng *rand.Rand, dim, extra int, margin float64) (*Region, []float64) {
	reg := NewRegion(dim)
	interior := randSimplexReduced(rng, dim)
	for i := 0; i < extra; i++ {
		a := make([]float64, dim)
		for k := range a {
			a[k] = rng.NormFloat64()
		}
		h := NewHalfspace(a, 0)
		h.B = Dot(h.A, interior) + margin
		reg.Add(h)
	}
	return reg, interior
}

// TestWitnessFastPathEquivalence: with the witness short-circuits enabled,
// Feasible, ContainsHalfspace, and Classify must return exactly what the
// pure-LP reference returns, across random regions and hyperplanes.
func TestWitnessFastPathEquivalence(t *testing.T) {
	defer SetWitnessFastPaths(true)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		dim := 1 + rng.Intn(4)
		reg, interior := randTightRegion(rng, dim, rng.Intn(12), 0.01+rng.Float64()*0.1)
		if rng.Intn(2) == 0 {
			reg.SetWitness(interior) // arm the fast paths without an LP
		} else {
			reg.Feasible() // warm the witness via the Chebyshev LP
		}
		for hc := 0; hc < 6; hc++ {
			a := make([]float64, dim)
			for k := range a {
				a[k] = rng.NormFloat64()
			}
			h := NewHalfspace(a, rng.NormFloat64()*0.5)

			SetWitnessFastPaths(false)
			wantC := reg.Clone().ContainsHalfspace(h)
			wantR := Classify(reg.Clone(), h)
			wantF := reg.Clone().Feasible()
			SetWitnessFastPaths(true)
			if got := reg.ContainsHalfspace(h); got != wantC {
				t.Fatalf("trial %d: ContainsHalfspace fast path = %v, LP = %v", trial, got, wantC)
			}
			if got := Classify(reg, h); got != wantR {
				t.Fatalf("trial %d: Classify fast path = %v, LP = %v", trial, got, wantR)
			}
			if got := reg.Feasible(); got != wantF {
				t.Fatalf("trial %d: Feasible fast path = %v, LP = %v", trial, got, wantF)
			}
		}
	}
}

// TestSimplexOnlyRegionConstantWitness: a region never constrained past its
// simplex bounds carries the centroid as a ready witness — Feasible is
// answered without any LP from the moment of construction.
func TestSimplexOnlyRegionConstantWitness(t *testing.T) {
	for dim := 1; dim <= 6; dim++ {
		reg := NewRegion(dim)
		w, ok := reg.Witness()
		if !ok {
			t.Fatalf("dim %d: fresh simplex region has no witness", dim)
		}
		for k, v := range w {
			if math.Abs(v-1/float64(dim+1)) > 1e-15 {
				t.Fatalf("dim %d: witness[%d] = %v, want centroid", dim, k, v)
			}
		}
		if !reg.Feasible() {
			t.Fatalf("dim %d: simplex region infeasible", dim)
		}
	}
}

// TestAddDeduplicates: re-adding halfspaces already present (directly or via
// CopyFrom of a sibling) must not grow the constraint set, and the region
// hash must be order-independent over the deduplicated set.
func TestAddDeduplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ri, rj, rk := randOption(rng, 4), randOption(rng, 4), randOption(rng, 4)
	h1 := PrefHalfspace(ri, rj)
	h2 := PrefHalfspace(ri, rk)
	h3 := PrefHalfspace(rj, rk)

	a := NewRegion(3).Add(h1, h2, h3)
	n := len(a.HS)
	a.Add(h1, h3, h2, h1)
	if len(a.HS) != n {
		t.Fatalf("duplicate Add grew HS from %d to %d", n, len(a.HS))
	}
	b := NewRegion(3).Add(h3, h1).Add(h2)
	if a.Hash() != b.Hash() {
		t.Error("hash depends on insertion order")
	}
	c := NewRegion(3).Add(h1, h2)
	if a.Hash() == c.Hash() {
		t.Error("different halfspace sets share a hash")
	}
	// Simplex bounds arriving again through another region's HS dedupe too.
	before := len(a.HS)
	a.Add(NewRegion(3).HS...)
	if len(a.HS) != before {
		t.Fatalf("re-adding simplex bounds grew HS from %d to %d", before, len(a.HS))
	}
}

// TestRegionCopyFromAndReset: pooled scratch regions must behave exactly
// like freshly built ones after CopyFrom or Reset.
func TestRegionCopyFromAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src, interior := randTightRegion(rng, 3, 8, 0.05)
	scratch := GetRegion()
	defer PutRegion(scratch)
	scratch.CopyFrom(src)
	if scratch.Hash() != src.Hash() || len(scratch.HS) != len(src.HS) {
		t.Fatal("CopyFrom did not reproduce the source region")
	}
	if !scratch.ContainsPoint(interior, PointTol) || !scratch.Feasible() {
		t.Fatal("copied region lost its geometry")
	}
	scratch.Reset(2)
	if scratch.Dim != 2 || len(scratch.HS) != 3 {
		t.Fatalf("Reset(2): dim=%d |HS|=%d, want 2 and 3 simplex bounds", scratch.Dim, len(scratch.HS))
	}
	if scratch.Hash() != NewRegion(2).Hash() {
		t.Error("reset region hash differs from a fresh region")
	}
}

// TestEmptyRegionSticky: a proven-empty region keeps answering without LPs,
// and Add can never resurrect it.
func TestEmptyRegionSticky(t *testing.T) {
	reg := NewRegion(2)
	a := make([]float64, 2)
	a[0] = 1
	reg.Add(NewHalfspace(a, -1)) // x0 <= -1 contradicts x0 >= 0
	if reg.Feasible() {
		t.Fatal("contradictory region reported feasible")
	}
	reg.Add(NewHalfspace([]float64{0, 1}, 0.5))
	if reg.Feasible() {
		t.Fatal("empty region resurrected by Add")
	}
	if !reg.ContainsHalfspace(NewHalfspace([]float64{1, 1}, -9)) {
		t.Fatal("empty region should be vacuously contained")
	}
}

// TestProjectInteriorPoint: a point already inside projects to itself with
// distance exactly zero, without entering the kernel.
func TestProjectInteriorPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		dim := 1 + rng.Intn(4)
		reg, interior := randTightRegion(rng, dim, 6, 0.05)
		proj, d := reg.Project(interior)
		if d != 0 {
			t.Fatalf("interior point at distance %v, want 0", d)
		}
		for k := range proj {
			if proj[k] != interior[k] {
				t.Fatalf("interior projection moved the point: %v vs %v", proj, interior)
			}
		}
		if reg.DistanceTo(interior) != 0 {
			t.Fatal("DistanceTo nonzero for interior point")
		}
	}
}

// TestProjectInfeasibleRegionTerminates: a contradictory constraint set has
// no nearest point. The kernel proves that in finitely many steps and says
// so — distance +Inf, no point — where its predecessor ran out its cycle
// budget and returned wherever it had got to.
func TestProjectInfeasibleRegionTerminates(t *testing.T) {
	reg := NewRegion(2)
	a := []float64{1, 0}
	reg.Add(NewHalfspace(a, -1)) // x0 <= -1 vs simplex's x0 >= 0
	x := []float64{0.3, 0.3}
	_, steps := ProjectionStats()
	proj, d := reg.Project(x)
	if proj != nil || !math.IsInf(d, 1) {
		t.Fatalf("infeasible projection returned proj=%v d=%v, want nil and +Inf", proj, d)
	}
	if _, after := ProjectionStats(); after-steps > 3 {
		t.Fatalf("emptiness took %d active-set steps", after-steps)
	}
	if d := reg.DistanceTo(x); !math.IsInf(d, 1) {
		t.Fatalf("DistanceTo an empty region = %v, want +Inf", d)
	}
}

// TestProjectSingleHalfspaceClosedForm: projection onto one halfspace has
// the closed form x − max(0, A·x−B)·A (unit normal); the kernel must match it.
func TestProjectSingleHalfspaceClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(5)
		a := make([]float64, dim)
		for k := range a {
			a[k] = rng.NormFloat64()
		}
		h := NewHalfspace(a, rng.NormFloat64())
		reg := EmptyRegionLike(dim)
		reg.Add(h)
		x := make([]float64, dim)
		for k := range x {
			x[k] = rng.NormFloat64() * 2
		}
		proj, d := reg.Project(x)
		v := math.Max(0, h.Eval(x))
		for k := range x {
			want := x[k] - v*h.A[k]
			if math.Abs(proj[k]-want) > 1e-8 {
				t.Fatalf("trial %d: proj[%d] = %v, closed form %v", trial, k, proj[k], want)
			}
		}
		if math.Abs(d-v) > 1e-8 {
			t.Fatalf("trial %d: dist = %v, want %v", trial, d, v)
		}
	}
}

// TestProjectToleranceBoundary: points within PointTol of a boundary count
// as inside (distance 0); points just past the tolerance project with their
// true positive distance.
func TestProjectToleranceBoundary(t *testing.T) {
	reg := EmptyRegionLike(2)
	reg.Add(NewHalfspace([]float64{1, 0}, 0.5)) // x0 <= 0.5

	if _, d := reg.Project([]float64{0.5, 0.1}); d != 0 {
		t.Fatalf("on-boundary point at distance %v, want 0", d)
	}
	if _, d := reg.Project([]float64{0.5 + 0.5*PointTol, 0.1}); d != 0 {
		t.Fatalf("within-tolerance point at distance %v, want 0", d)
	}
	const eps = 1e-6 // clearly past PointTol
	_, d := reg.Project([]float64{0.5 + eps, 0.1})
	if math.Abs(d-eps) > 1e-9 {
		t.Fatalf("outside point at distance %v, want %v", d, eps)
	}
}

// BenchmarkClassify contrasts the witness-armed classification against the
// two-LP reference on a region whose witness settles one side.
func BenchmarkClassify(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	reg, interior := randTightRegion(rng, 3, 16, 0.05)
	reg.SetWitness(interior)
	// A hyperplane the witness strictly violates: rules out RelInside.
	a := make([]float64, 3)
	for k := range a {
		a[k] = rng.NormFloat64()
	}
	h := NewHalfspace(a, 0)
	h.B = Dot(h.A, interior) - 0.2
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Classify(reg, h)
		}
	}
	b.Run("fastpath", run)
	b.Run("lp-only", func(b *testing.B) {
		SetWitnessFastPaths(false)
		defer SetWitnessFastPaths(true)
		run(b)
	})
}

// BenchmarkProject measures the active-set projection: an exterior point
// against a multi-constraint region with and without the returned point,
// one step onto a single cut of the simplex, and a far exterior point
// against a sliver — a cell-shaped region between two nearly parallel faces,
// the shape alternating projections zigzag across without converging.
func BenchmarkProject(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	reg, _ := randTightRegion(rng, 3, 10, 0.05)
	x := []float64{0.9, 0.9, 0.9} // outside: coordinates sum past the simplex
	b.Run("project", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reg.Project(x)
		}
	})
	b.Run("distance", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reg.DistanceTo(x)
		}
	})
	b.Run("halfspace", func(b *testing.B) {
		cut := NewRegion(3).Add(NewHalfspace([]float64{1, 1, 1}, 0.4))
		q := []float64{0.5, 0.5, 0.5}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cut.Project(q)
		}
	})
	b.Run("sliver", func(b *testing.B) {
		const ang = 1e-3
		sliver := NewRegion(3).Add(
			NewHalfspace([]float64{math.Sin(ang), math.Cos(ang), 0}, 0.3),
			NewHalfspace([]float64{math.Sin(ang), -math.Cos(ang), 0}, -0.3+1e-4),
			NewHalfspace([]float64{0.2, 1, -1}, 0.25),
			NewHalfspace([]float64{-0.1, -1, 1.1}, -0.2))
		if !sliver.Feasible() {
			b.Fatal("sliver region should be feasible")
		}
		far := []float64{3, -2, 2.5}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sliver.DistanceTo(far)
		}
	})
}
