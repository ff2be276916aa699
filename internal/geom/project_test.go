package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// kktProject runs the kernel on its own working set and checks the result
// against the optimality conditions of min ½‖y−x‖² s.t. A·y ≤ B, which
// certify y as the projection without reference to any other solver: y is
// feasible, x − y = Σ λᵢaᵢ with λ ≥ 0, and λ is carried only by tight rows,
// each to 1e-12. With relative set, feasibility is held to 1e-12 of the
// projection's largest coordinate and the multiplier conditions to 1e-12 of
// Σλ besides: a vertex between nearly opposed faces lies 1/angle away and
// needs multipliers as large, each with its rounding. It returns the
// distance (+Inf for a region the kernel found empty).
func kktProject(t testing.TB, reg *Region, x []float64, relative bool) float64 {
	t.Helper()
	const feas = 1e-12
	stalls := projectionStalls.Load()
	s := carveActiveSet(reg.Dim, nil, nil)
	d := Rows(reg.HS).project(x, &s)
	if projectionStalls.Load() != stalls {
		t.Fatalf("projection of %v hit the step bound (%d halfspaces, dim %d)", x, len(reg.HS), reg.Dim)
	}
	if math.IsInf(d, 1) {
		return d
	}
	tol := feas
	if relative {
		for _, c := range s.y {
			tol = max(tol, feas*math.Abs(c))
		}
	}
	for i, h := range reg.HS {
		if e := h.Eval(s.y); e > tol {
			t.Fatalf("projection %v violates halfspace %d by %g", s.y, i, e)
		}
	}
	if relative {
		for _, lam := range s.lam[:s.n] {
			tol += feas * lam
		}
	}
	res := make([]float64, reg.Dim)
	for k := range res {
		res[k] = x[k] - s.y[k]
	}
	for i, a := range s.act[:s.n] {
		lam, h := s.lam[i], reg.HS[a]
		if lam < 0 {
			t.Fatalf("negative multiplier %g on halfspace %d", lam, a)
		}
		if e := h.Eval(s.y); lam > 0 && math.Abs(e) > tol {
			t.Fatalf("multiplier %g on halfspace %d, which is %g off tight", lam, a, e)
		}
		for k := range res {
			res[k] -= lam * h.A[k]
		}
	}
	for k, v := range res {
		if math.Abs(v) > tol {
			t.Fatalf("x − y − Σλa has component %d = %g (x=%v y=%v)", k, v, x, s.y)
		}
	}
	if math.Abs(d-Dist(x, s.y)) > tol {
		t.Fatalf("distance %g, but ‖x−y‖ = %g", d, Dist(x, s.y))
	}
	return d
}

// randExterior draws a point around the unit box, one time in four far away.
func randExterior(rng *rand.Rand, dim int) []float64 {
	scale := 1.0
	if rng.Intn(4) == 0 {
		scale = 20
	}
	x := make([]float64, dim)
	for k := range x {
		x[k] = 0.5 + scale*(rng.Float64()*2-1)
	}
	return x
}

// TestProjectKKT: every projection onto a random tight region, Dim 1–5,
// carries its own optimality certificate. The first 2,000 draws replay the
// rand.NewSource(3) dim-3 sequence of BenchmarkProject's region generator,
// on which the alternating-projection loop this kernel replaced ran out of
// cycles 4 times and missed by up to 7e-5.
func TestProjectKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		reg, _ := randTightRegion(rng, 3, 10, 0.05)
		kktProject(t, reg, randExterior(rng, 3), false)
	}
	rng = rand.New(rand.NewSource(26))
	for trial := 0; trial < 10000; trial++ {
		dim := 1 + trial%5
		reg, interior := randTightRegion(rng, dim, rng.Intn(20), math.Pow(10, -1-5*rng.Float64()))
		x := randExterior(rng, dim)
		d := kktProject(t, reg, x, false)
		if math.IsInf(d, 1) {
			t.Fatalf("trial %d: region containing %v reported empty", trial, interior)
		}
		if reg.ContainsPoint(x, PointTol) {
			continue
		}
		proj, pd := reg.Project(x)
		if pd != d || reg.DistanceTo(x) != d || Dist(x, proj) != d {
			t.Fatalf("trial %d: Project %g, DistanceTo %g, kernel %g", trial, pd, reg.DistanceTo(x), d)
		}
	}
}

// randDegenerateRegion draws up to 24 halfspaces with no simplex around
// them, arranged to make an active-set method lose its footing: normals
// nearly parallel or nearly opposed to an earlier one (by 1e-1 down to
// 1e-15), boundaries through one common point or a hair (down to 1e-14) off
// it. The region may be empty, unbounded, or have its nearest vertex 1/angle
// away.
func randDegenerateRegion(rng *rand.Rand, dim int) *Region {
	reg := EmptyRegionLike(dim)
	vertex := make([]float64, dim)
	for k := range vertex {
		vertex[k] = rng.Float64()
	}
	for m := 1 + rng.Intn(24); len(reg.HS) < m; {
		a := make([]float64, dim)
		for k := range a {
			a[k] = rng.NormFloat64()
		}
		if len(reg.HS) > 0 && rng.Intn(5) == 0 {
			prev, eps := reg.HS[rng.Intn(len(reg.HS))].A, math.Pow(10, -1-14*rng.Float64())
			sign := float64(2*rng.Intn(2) - 1)
			for k := range a {
				a[k] = sign*prev[k] + eps*a[k]
			}
		}
		h := NewHalfspace(a, 0)
		switch rng.Intn(3) {
		case 0:
			h.B = Dot(h.A, vertex)
		case 1:
			h.B = Dot(h.A, vertex) + math.Pow(10, -14*rng.Float64())
		default:
			h.B = rng.NormFloat64()
		}
		reg.HS = append(reg.HS, h)
	}
	return reg
}

// TestProjectKKTDegenerate: the kernel stops inside its step bound, with a
// certified projection or with +Inf, on regions built to be degenerate.
func TestProjectKKTDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50000; trial++ {
		dim := 1 + trial%5
		x := make([]float64, dim)
		for k := range x {
			x[k] = 2 * rng.NormFloat64()
		}
		kktProject(t, randDegenerateRegion(rng, dim), x, true)
	}
}

// polygonDistance is the distance from x to a 2-D region by exhaustion: the
// nearest point of a convex polygon is x, its foot on an edge line, or a
// vertex, so the minimum over every such candidate that is feasible is the
// distance. It shares nothing with the kernel but Eval.
func polygonDistance(reg *Region, x []float64) float64 {
	const feas = 1e-11
	best := math.Inf(1)
	try := func(px, py float64) {
		p := []float64{px, py}
		if reg.ContainsPoint(p, feas) {
			best = math.Min(best, Dist(x, p))
		}
	}
	try(x[0], x[1])
	for i, h := range reg.HS {
		if triv, _ := h.Trivial(); triv {
			continue
		}
		e := h.Eval(x)
		try(x[0]-e*h.A[0], x[1]-e*h.A[1])
		for _, g := range reg.HS[:i] {
			det := h.A[0]*g.A[1] - h.A[1]*g.A[0]
			if math.Abs(det) < 1e-14 {
				continue
			}
			try((h.B*g.A[1]-g.B*h.A[1])/det, (h.A[0]*g.B-g.A[0]*h.B)/det)
		}
	}
	return best
}

// randCell builds the region a level-k cell of a τ-LevelIndex over n random
// 3-attribute options would have around a random weight: the top-k set at
// that weight beats every other option. Such regions are thin and full of
// nearly redundant, nearly parallel halfspaces.
func randCell(rng *rand.Rand, n, k int) *Region {
	opts := make([][]float64, n)
	for i := range opts {
		opts[i] = randOption(rng, 3)
	}
	w := randSimplexReduced(rng, 2)
	for i := 0; i < k; i++ { // selection sort of the top k by score at w
		for j := i + 1; j < n; j++ {
			if Score(opts[j], w) > Score(opts[i], w) {
				opts[i], opts[j] = opts[j], opts[i]
			}
		}
	}
	reg := NewRegion(2)
	for i := 0; i < k; i++ {
		for j := k; j < n; j++ {
			reg.AddPref(opts[i], opts[j])
		}
	}
	return reg
}

// TestDistanceToPolygonOracle: on cell-shaped 2-D regions DistanceTo equals
// the exhaustive polygon distance.
func TestDistanceToPolygonOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(60000))
	stalls := projectionStalls.Load()
	for trial := 0; trial < 12000; trial++ {
		reg := randCell(rng, 6+rng.Intn(20), 1+rng.Intn(4))
		x := randSimplexReduced(rng, 2)
		if trial%8 == 0 {
			x = randExterior(rng, 2)
		}
		got, want := reg.DistanceTo(x), polygonDistance(reg, x)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: DistanceTo(%v) = %.12g, polygon oracle %.12g (%d halfspaces)",
				trial, x, got, want, len(reg.HS))
		}
	}
	if n := projectionStalls.Load() - stalls; n != 0 {
		t.Fatalf("%d projections hit the step bound", n)
	}
}

// TestProjectDegenerate: inputs on which an active-set method can lose its
// footing each have a defined result.
func TestProjectDegenerate(t *testing.T) {
	plane := func(b float64, a ...float64) Halfspace { return NewHalfspace(a, b) }
	region := func(dim int, hs ...Halfspace) *Region {
		reg := EmptyRegionLike(dim)
		reg.HS = hs // bypass Add's dedup: duplicates must reach the kernel
		return reg
	}
	const ang = 1e-9
	cases := []struct {
		name string
		reg  *Region
		x    []float64
		want float64
	}{
		{"duplicate halfspaces",
			region(2, plane(0.5, 1, 0), plane(0.5, 1, 0), plane(0.5, 0, 1), plane(0.5, 0, 1)),
			[]float64{1.5, 1.5}, math.Sqrt2},
		{"near-parallel pair, deeper one binds",
			region(2, plane(0.5, 1, 0), plane(0.4, math.Cos(ang), math.Sin(ang))),
			[]float64{1, 0}, 0.6},
		{"near-parallel wedge with a far apex",
			region(2, plane(0, 0, 1), plane(0, math.Sin(ang), -math.Cos(ang)), plane(1, 1, 0)),
			[]float64{2, 0.5}, math.Hypot(2, 0.5)},
		{"zero-width slab",
			region(2, plane(0.3, 1, 0), plane(-0.3, -1, 0)),
			[]float64{0.9, 0.2}, 0.6},
		{"single vertex",
			region(2, plane(0.3, 1, 0), plane(-0.3, -1, 0), plane(0.7, 0, 1), plane(-0.7, 0, -1)),
			[]float64{0, 0}, math.Hypot(0.3, 0.7)},
		{"on a face", region(2, plane(0.5, 1, 0)), []float64{0.5, 3}, 0},
		{"within PointTol outside a face", region(2, plane(0.5, 1, 0)), []float64{0.5 + PointTol/2, 3}, 0},
		{"just past PointTol", region(2, plane(0.5, 1, 0)), []float64{0.5 + 1e-6, 3}, 1e-6},
		{"more tight halfspaces than dimensions",
			region(2, plane(0, 1, 0), plane(0, 0, 1), plane(0, 1, 1), plane(0, 2, 1), plane(0, 1, 2)),
			[]float64{1, 1}, math.Sqrt2},
		{"trivially empty", region(2, plane(0.5, 1, 0), Halfspace{A: []float64{0, 0}, B: -1}),
			[]float64{1, 1}, math.Inf(1)},
		{"trivially whole", region(2, plane(0.5, 1, 0), Halfspace{A: []float64{0, 0}, B: 1}),
			[]float64{1, 1}, 0.5},
		{"LP-empty, opposed pair", region(2, plane(-1, 1, 0), plane(0, -1, 0)),
			[]float64{0.3, 0.3}, math.Inf(1)},
		{"LP-empty, three-way", region(2, plane(0, -1, 0), plane(0, 0, -1), plane(-0.1, 1, 1)),
			[]float64{0.3, 0.3}, math.Inf(1)},
		{"LP-empty by less than a tolerance", region(1, plane(0.5, 1), plane(-0.5-1e-10, -1)),
			[]float64{0}, math.Inf(1)},
	}
	for _, tc := range cases {
		d := kktProject(t, tc.reg, tc.x, false)
		proj, pd := tc.reg.Project(tc.x)
		if tc.want == 0 { // inside within PointTol: the kernel never runs
			if pd != 0 || Dist(proj, tc.x) != 0 || tc.reg.DistanceTo(tc.x) != 0 {
				t.Errorf("%s: inside point moved: proj=%v d=%g", tc.name, proj, pd)
			}
			continue
		}
		if pd != d || tc.reg.DistanceTo(tc.x) != d {
			t.Errorf("%s: Project %g, DistanceTo %g, kernel %g", tc.name, pd, tc.reg.DistanceTo(tc.x), d)
		}
		if math.IsInf(tc.want, 1) {
			if !math.IsInf(d, 1) || proj != nil {
				t.Errorf("%s: empty region gave proj=%v d=%g, want nil and +Inf", tc.name, proj, d)
			}
			continue
		}
		if math.Abs(d-tc.want) > 1e-9 {
			t.Errorf("%s: distance %.12g, want %.12g", tc.name, d, tc.want)
		}
	}
}

// TestProjectAllocs pins the allocation contract the ORU walk relies on:
// DistanceTo none, Project the returned point only.
func TestProjectAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	reg, _ := randTightRegion(rng, 3, 10, 0.05)
	x := []float64{0.9, 0.9, 0.9}
	if n := testing.AllocsPerRun(100, func() { reg.DistanceTo(x) }); n != 0 {
		t.Errorf("DistanceTo allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { reg.Project(x) }); n != 1 {
		t.Errorf("Project allocates %v times, want 1", n)
	}
}

// FuzzProject decodes bytes into a region (Dim ≤ 5, ≤ 24 halfspaces, no
// simplex bounds, so it may be empty, unbounded or degenerate) and a point,
// and requires the kernel to stop inside its step bound with a result that
// passes the KKT check, or with +Inf.
func FuzzProject(f *testing.F) {
	seed := func(dim byte, vals ...float64) {
		b := []byte{dim}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(2, 0.9, 0.9, 1, 0, 0.5, 0, 1, 0.5)
	seed(1, 0, 1, -1, -1, 0)
	seed(3, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1+1e-9, 0.9, -1, 0, 0, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dim := 1 + int(data[0])%5
		var vals []float64
		for b := data[1:]; len(b) >= 8 && len(vals) < dim+24*(dim+1); b = b[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(b))
			if math.IsNaN(v) || math.Abs(v) > 16 {
				return // the kernel's tolerances are absolute, for coordinates of order one
			}
			vals = append(vals, v)
		}
		if len(vals) < dim {
			return
		}
		x, vals := vals[:dim], vals[dim:]
		reg := EmptyRegionLike(dim)
		for ; len(vals) > dim; vals = vals[dim+1:] {
			a := vals[:dim]
			if n := math.Sqrt(Dot(a, a)); n != 0 && n < 1e-3 {
				return // NewHalfspace normalizes: keep B/‖a‖ of order one too
			}
			reg.HS = append(reg.HS, NewHalfspace(a, vals[dim]))
		}
		kktProject(t, reg, x, true)
	})
}
