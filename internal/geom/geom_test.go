package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randOption(rng *rand.Rand, d int) []float64 {
	r := make([]float64, d)
	for i := range r {
		r[i] = rng.Float64()
	}
	return r
}

func randSimplexReduced(rng *rand.Rand, dim int) []float64 {
	// Uniform Dirichlet(1,...,1) via exponential spacings, drop last coord.
	e := make([]float64, dim+1)
	s := 0.0
	for i := range e {
		e[i] = -math.Log(math.Max(rng.Float64(), 1e-15))
		s += e[i]
	}
	x := make([]float64, dim)
	for i := range x {
		x[i] = e[i] / s
	}
	return x
}

func TestReduceLiftRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		dim := 1 + rng.Intn(6)
		x := randSimplexReduced(rng, dim)
		w := Lift(x)
		sum := 0.0
		for _, v := range w {
			if v < -1e-12 {
				t.Fatalf("lifted weight negative: %v", w)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("lifted weights sum to %v", sum)
		}
		back := Reduce(w)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-15 {
				t.Fatalf("roundtrip mismatch at %d: %v vs %v", i, back[i], x[i])
			}
		}
	}
}

func TestScoreMatchesScoreFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(6)
		opt := randOption(r, d)
		x := randSimplexReduced(r, d-1)
		return math.Abs(Score(opt, x)-ScoreFull(opt, Lift(x))) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestPrefHalfspaceAgreesWithScores(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(6)
		ri, rj := randOption(r, d), randOption(r, d)
		h := PrefHalfspace(ri, rj)
		for trial := 0; trial < 50; trial++ {
			x := randSimplexReduced(r, d-1)
			diff := Score(ri, x) - Score(rj, x)
			in := h.Contains(x, 1e-9)
			if diff > 1e-7 && !in {
				return false
			}
			if diff < -1e-7 && in {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestPrefHalfspaceIdenticalOptions(t *testing.T) {
	r := []float64{0.5, 0.5, 0.5}
	h := PrefHalfspace(r, r)
	triv, whole := h.Trivial()
	if !triv || !whole {
		t.Fatalf("identical options should give trivial whole-space halfspace, got %+v", h)
	}
}

func TestPrefHalfspaceDominated(t *testing.T) {
	// ri dominates rj strictly: H+ should cover the whole simplex.
	ri := []float64{0.9, 0.8, 0.7}
	rj := []float64{0.1, 0.2, 0.3}
	h := PrefHalfspace(ri, rj)
	reg := NewRegion(2)
	if !reg.ContainsHalfspace(h) {
		t.Error("H+ of dominating option should cover the simplex")
	}
	if reg.ContainsHalfspace(h.Neg()) {
		t.Error("H- of dominating option should not cover the simplex")
	}
}

func TestSimplexBoundsMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dim := range []int{1, 2, 3, 5} {
		reg := NewRegion(dim)
		for trial := 0; trial < 50; trial++ {
			x := randSimplexReduced(rng, dim)
			if !reg.ContainsPoint(x, 1e-9) {
				t.Fatalf("dim %d: simplex sample %v rejected", dim, x)
			}
		}
		out := make([]float64, dim)
		out[0] = 1.5
		if reg.ContainsPoint(out, 1e-9) {
			t.Fatalf("dim %d: point outside simplex accepted", dim)
		}
		neg := make([]float64, dim)
		neg[0] = -0.1
		if reg.ContainsPoint(neg, 1e-9) {
			t.Fatalf("dim %d: negative point accepted", dim)
		}
	}
}

func TestRegionFeasibility(t *testing.T) {
	reg := NewRegion(2)
	if !reg.Feasible() {
		t.Fatal("full simplex should be feasible")
	}
	// Split by x0 <= 0.3: still feasible.
	reg2 := reg.Clone().Add(NewHalfspace([]float64{1, 0}, 0.3))
	if !reg2.Feasible() {
		t.Fatal("half simplex should be feasible")
	}
	// Contradiction: x0 <= 0.3 and x0 >= 0.7.
	reg3 := reg2.Clone().Add(NewHalfspace([]float64{-1, 0}, -0.7))
	if reg3.Feasible() {
		t.Fatal("contradictory region should be infeasible")
	}
	// Degenerate: x0 <= 0.3 and x0 >= 0.3 — a lower-dimensional slice.
	reg4 := reg.Clone().
		Add(NewHalfspace([]float64{1, 0}, 0.3)).
		Add(NewHalfspace([]float64{-1, 0}, -0.3))
	if reg4.Feasible() {
		t.Fatal("degenerate slice should not count as full-dimensional")
	}
	if _, nonempty := reg4.FeasibleMargin(); !nonempty {
		t.Fatal("degenerate slice is still nonempty as a set")
	}
}

func TestChebyshevCenterInside(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(4)
		reg := NewRegion(dim)
		// Add a few random halfspaces through random simplex points so the
		// region stays nonempty around at least one of them... build by
		// keeping a witness point.
		witness := randSimplexReduced(rng, dim)
		for i := 0; i < 4; i++ {
			a := make([]float64, dim)
			for k := range a {
				a[k] = rng.NormFloat64()
			}
			h := NewHalfspace(a, 0)
			h.B = Dot(h.A, witness) + 0.05 // witness strictly inside
			reg.Add(h)
		}
		c, margin, ok := reg.ChebyshevCenter()
		if !ok {
			t.Fatalf("region with witness should be feasible")
		}
		if !reg.ContainsPoint(c, 1e-9) {
			t.Fatalf("chebyshev center %v outside region", c)
		}
		if margin <= InteriorEps {
			t.Fatalf("margin %v too small", margin)
		}
	}
}

func TestClassifyAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 120; trial++ {
		dim := 1 + rng.Intn(3)
		d := dim + 1
		reg := NewRegion(dim)
		// Restrict region with halfspaces of random option pairs that keep a
		// witness point inside.
		witness := randSimplexReduced(rng, dim)
		for i := 0; i < 3; i++ {
			ri, rj := randOption(rng, d), randOption(rng, d)
			h := PrefHalfspace(ri, rj)
			if h.Eval(witness) > 0 {
				h = h.Neg()
			}
			reg.Add(h)
		}
		ri, rj := randOption(rng, d), randOption(rng, d)
		h := PrefHalfspace(ri, rj)
		rel := Classify(reg, h)
		pts := reg.RandomInteriorPoints(60, rng.Float64)
		if pts == nil {
			continue
		}
		in, out := 0, 0
		for _, x := range pts {
			if h.Eval(x) <= 0 {
				in++
			} else {
				out++
			}
		}
		switch rel {
		case RelInside:
			if out > 0 {
				t.Fatalf("RelInside but %d/%d sampled points violate h", out, len(pts))
			}
		case RelOutside:
			if in > 0 {
				// Points exactly on the hyperplane may count as in; allow
				// only boundary-tolerance cases.
				for _, x := range pts {
					if h.Eval(x) < -1e-6 {
						t.Fatalf("RelOutside but interior point strictly inside h")
					}
				}
			}
		case RelSplit:
			// A genuine split should show both sides given enough samples;
			// tolerate skewed splits by only requiring nonzero totals.
			if in+out == 0 {
				t.Fatalf("no samples evaluated")
			}
		}
	}
}

func TestContainsHalfspaceVacuous(t *testing.T) {
	reg := NewRegion(1).
		Add(NewHalfspace([]float64{1}, 0.2)).
		Add(NewHalfspace([]float64{-1}, -0.8)) // empty
	if !reg.ContainsHalfspace(NewHalfspace([]float64{1}, -5)) {
		t.Error("empty region should be vacuously contained in any halfspace")
	}
}

func TestProjectInsideIsIdentity(t *testing.T) {
	reg := NewRegion(2)
	x := []float64{0.2, 0.3}
	proj, d := reg.Project(x)
	if d != 0 {
		t.Fatalf("distance for interior point = %v, want 0", d)
	}
	if proj[0] != x[0] || proj[1] != x[1] {
		t.Fatalf("projection of interior point changed it: %v", proj)
	}
}

func TestProjectOntoSimplexKnown(t *testing.T) {
	// Project (2, 0) onto the 2D reduced simplex: nearest point is (1, 0).
	reg := NewRegion(2)
	proj, d := reg.Project([]float64{2, 0})
	if math.Abs(proj[0]-1) > 1e-6 || math.Abs(proj[1]) > 1e-6 {
		t.Fatalf("projection = %v, want (1,0)", proj)
	}
	if math.Abs(d-1) > 1e-6 {
		t.Fatalf("distance = %v, want 1", d)
	}
}

func TestProjectOntoSlab(t *testing.T) {
	// Region x0 in [0.5, 0.8] within 1-dim simplex; project 0.1 -> 0.5.
	reg := NewRegion(1).
		Add(NewHalfspace([]float64{-1}, -0.5)).
		Add(NewHalfspace([]float64{1}, 0.8))
	proj, d := reg.Project([]float64{0.1})
	if math.Abs(proj[0]-0.5) > 1e-6 || math.Abs(d-0.4) > 1e-6 {
		t.Fatalf("proj=%v d=%v, want 0.5 / 0.4", proj, d)
	}
}

func TestProjectPropertyNearest(t *testing.T) {
	// The projection must be no farther than any sampled interior point.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		dim := 1 + rng.Intn(3)
		reg := NewRegion(dim)
		witness := randSimplexReduced(rng, dim)
		for i := 0; i < 3; i++ {
			a := make([]float64, dim)
			for k := range a {
				a[k] = rng.NormFloat64()
			}
			h := NewHalfspace(a, 0)
			h.B = Dot(h.A, witness) + 0.03
			reg.Add(h)
		}
		if !reg.Feasible() {
			continue
		}
		q := make([]float64, dim)
		for k := range q {
			q[k] = rng.Float64()*2 - 0.5
		}
		proj, d := reg.Project(q)
		if !reg.ContainsPoint(proj, 1e-6) {
			t.Fatalf("projection %v not inside region", proj)
		}
		for _, p := range reg.RandomInteriorPoints(40, rng.Float64) {
			if Dist(q, p) < d-1e-6 {
				t.Fatalf("sampled point closer (%v) than projection (%v)", Dist(q, p), d)
			}
		}
	}
}

func TestBoxHalfspacesAndRegion(t *testing.T) {
	b := NewBox([]float64{0.2, 0.1}, []float64{0.5, 0.4})
	if !b.Contains([]float64{0.3, 0.2}, 0) {
		t.Error("center-ish point should be in box")
	}
	if b.Contains([]float64{0.6, 0.2}, 0) {
		t.Error("point outside hi bound accepted")
	}
	c := b.Center()
	if math.Abs(c[0]-0.35) > 1e-12 || math.Abs(c[1]-0.25) > 1e-12 {
		t.Errorf("center = %v", c)
	}
	reg := b.Region()
	if !reg.ContainsPoint([]float64{0.3, 0.2}, 1e-9) {
		t.Error("box region should contain inner point")
	}
	if reg.ContainsPoint([]float64{0.1, 0.2}, 1e-9) {
		t.Error("box region should reject point below lo")
	}
	if !reg.Feasible() {
		t.Error("box clipped to simplex should be feasible")
	}
}

func TestIntersectsRegion(t *testing.T) {
	a := NewRegion(1).Add(NewHalfspace([]float64{1}, 0.5))    // x <= 0.5
	b := NewRegion(1).Add(NewHalfspace([]float64{-1}, -0.4))  // x >= 0.4
	c := NewRegion(1).Add(NewHalfspace([]float64{-1}, -0.5))  // x >= 0.5
	d2 := NewRegion(1).Add(NewHalfspace([]float64{-1}, -0.6)) // x >= 0.6
	if !a.IntersectsRegion(b) {
		t.Error("overlapping intervals should intersect")
	}
	if a.IntersectsRegion(c) {
		t.Error("touching intervals should not count (no interior)")
	}
	if a.IntersectsRegion(d2) {
		t.Error("disjoint intervals should not intersect")
	}
}

func TestRandomInteriorPointsInside(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	reg := NewRegion(3).Add(NewHalfspace([]float64{1, 1, 0}, 0.6))
	pts := reg.RandomInteriorPoints(100, rng.Float64)
	if len(pts) != 100 {
		t.Fatalf("wanted 100 points, got %d", len(pts))
	}
	for _, p := range pts {
		if !reg.ContainsPoint(p, 1e-9) {
			t.Fatalf("sampled point %v outside region", p)
		}
	}
}

func TestEvalAndNeg(t *testing.T) {
	h := NewHalfspace([]float64{3, 4}, 10) // normalized to (0.6,0.8), b=2
	if math.Abs(h.A[0]-0.6) > 1e-12 || math.Abs(h.B-2) > 1e-12 {
		t.Fatalf("normalization wrong: %+v", h)
	}
	x := []float64{1, 1}
	if math.Abs(h.Eval(x)-(-0.6)) > 1e-12 {
		t.Fatalf("Eval = %v, want -0.6", h.Eval(x))
	}
	n := h.Neg()
	if math.Abs(n.Eval(x)-0.6) > 1e-12 {
		t.Fatalf("Neg Eval = %v, want 0.6", n.Eval(x))
	}
}

func BenchmarkRegionFeasible(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	reg := NewRegion(3)
	witness := randSimplexReduced(rng, 3)
	for i := 0; i < 20; i++ {
		a := make([]float64, 3)
		for k := range a {
			a[k] = rng.NormFloat64()
		}
		h := NewHalfspace(a, 0)
		h.B = Dot(h.A, witness) + 0.02
		reg.Add(h)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !reg.Feasible() {
			b.Fatal("region should be feasible")
		}
	}
}
