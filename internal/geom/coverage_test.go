package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestDistanceTo(t *testing.T) {
	reg := NewRegion(1).Add(NewHalfspace([]float64{1}, 0.5))
	if d := reg.DistanceTo([]float64{0.9}); math.Abs(d-0.4) > 1e-6 {
		t.Errorf("DistanceTo = %v, want 0.4", d)
	}
	if d := reg.DistanceTo([]float64{0.2}); d != 0 {
		t.Errorf("DistanceTo for interior point = %v", d)
	}
}

func TestSampleFromMatchesRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	reg := NewRegion(2).Add(NewHalfspace([]float64{1, 1}, 0.7))
	start := []float64{0.1, 0.1}
	pts := reg.SampleFrom(start, 50, rng.Float64)
	if len(pts) != 50 {
		t.Fatalf("SampleFrom returned %d points", len(pts))
	}
	for _, p := range pts {
		if !reg.ContainsPoint(p, 1e-9) {
			t.Fatalf("sample %v outside region", p)
		}
	}
}

func TestRandomInteriorPointsEmptyRegion(t *testing.T) {
	reg := NewRegion(1).
		Add(NewHalfspace([]float64{1}, 0.2)).
		Add(NewHalfspace([]float64{-1}, -0.8))
	if pts := reg.RandomInteriorPoints(5, rand.New(rand.NewSource(1)).Float64); pts != nil {
		t.Errorf("empty region yielded samples: %v", pts)
	}
}

func TestEmptyRegionLike(t *testing.T) {
	reg := EmptyRegionLike(3)
	if reg.Dim != 3 || len(reg.HS) != 0 {
		t.Errorf("EmptyRegionLike: %+v", reg)
	}
	// Unconstrained nonneg orthant: feasibility holds (capped margin).
	if !reg.Feasible() {
		t.Error("unconstrained region should be feasible")
	}
}

func TestChebyshevCenterDegenerate(t *testing.T) {
	// A zero-width slab has no full-dimensional interior.
	reg := NewRegion(1).
		Add(NewHalfspace([]float64{1}, 0.4)).
		Add(NewHalfspace([]float64{-1}, -0.4))
	if _, _, ok := reg.ChebyshevCenter(); ok {
		t.Error("degenerate region should have no Chebyshev center")
	}
}

func TestClassifyTrivialHalfspaces(t *testing.T) {
	reg := NewRegion(1)
	whole := Halfspace{A: []float64{0}, B: 1}
	empty := Halfspace{A: []float64{0}, B: -1}
	if Classify(reg, whole) != RelInside {
		t.Error("whole-space halfspace should classify as inside")
	}
	if Classify(reg, empty) != RelOutside {
		t.Error("empty halfspace should classify as outside")
	}
}

func TestClassifyOnEmptyRegion(t *testing.T) {
	reg := NewRegion(1).
		Add(NewHalfspace([]float64{1}, 0.2)).
		Add(NewHalfspace([]float64{-1}, -0.8))
	h := NewHalfspace([]float64{1}, 0.5)
	if Classify(reg, h) != RelInside {
		t.Error("classification over an empty region is vacuously inside")
	}
}

func TestMaximizeOnEmptyViaTrivial(t *testing.T) {
	reg := NewRegion(1)
	reg.Add(Halfspace{A: []float64{0}, B: -1}) // trivially empty
	if reg.Feasible() {
		t.Error("region with an empty trivial halfspace should be infeasible")
	}
	if !reg.ContainsHalfspace(NewHalfspace([]float64{1}, -10)) {
		t.Error("empty region should be vacuously contained")
	}
}

func TestContainsHalfspaceTrivial(t *testing.T) {
	reg := NewRegion(1)
	if !reg.ContainsHalfspace(Halfspace{A: []float64{0}, B: 5}) {
		t.Error("whole-space halfspace contains everything")
	}
	if reg.ContainsHalfspace(Halfspace{A: []float64{0}, B: -5}) {
		t.Error("empty halfspace contains nothing nonempty")
	}
}

func TestVolumeInterval(t *testing.T) {
	reg := NewRegion(1).
		Add(NewHalfspace([]float64{1}, 0.7)).
		Add(NewHalfspace([]float64{-1}, -0.2))
	if v := reg.Volume(0, nil); math.Abs(v-0.5) > 1e-12 {
		t.Errorf("interval volume = %v, want 0.5", v)
	}
	empty := NewRegion(1).
		Add(NewHalfspace([]float64{1}, 0.2)).
		Add(NewHalfspace([]float64{-1}, -0.7))
	if v := empty.Volume(0, nil); v != 0 {
		t.Errorf("empty interval volume = %v", v)
	}
	if v := NewRegion(1).Volume(0, nil); math.Abs(v-1) > 1e-12 {
		t.Errorf("full 1-simplex volume = %v, want 1", v)
	}
}

func TestVolumePolygon(t *testing.T) {
	// Whole 2-simplex: area 1/2.
	if v := NewRegion(2).Volume(0, nil); math.Abs(v-0.5) > 1e-9 {
		t.Errorf("2-simplex area = %v, want 0.5", v)
	}
	// Box [0.1,0.3]x[0.1,0.3] inside the simplex: area 0.04.
	reg := NewBox([]float64{0.1, 0.1}, []float64{0.3, 0.3}).Region()
	if v := reg.Volume(0, nil); math.Abs(v-0.04) > 1e-9 {
		t.Errorf("box area = %v, want 0.04", v)
	}
	// Half the simplex cut by x0 <= x1 (through the origin): area 1/4.
	half := NewRegion(2).Add(NewHalfspace([]float64{1, -1}, 0))
	if v := half.Volume(0, nil); math.Abs(v-0.25) > 1e-9 {
		t.Errorf("half-simplex area = %v, want 0.25", v)
	}
}

// TestBoundingBox: each of BoundingBox's three algorithms (the interval at
// dim 1, the clipped polygon at dim 2, LPs beyond) gives the simplex the
// unit box and a box region itself, padded by BoxPad, and reports an empty
// region — cut empty by its rows or by a trivially empty row — as lo > hi.
func TestBoundingBox(t *testing.T) {
	for dim := 1; dim <= 4; dim++ {
		lo, hi := make([]float64, dim), make([]float64, dim)
		lo2, hi2 := make([]float64, dim), make([]float64, dim)
		for j := range lo2 {
			lo2[j], hi2[j] = 0.1, 0.2
		}
		zero := make([]float64, dim)
		cut := NewRegion(dim).Add(NewHalfspace(append([]float64{1}, zero[1:]...), 0.1),
			NewHalfspace(append([]float64{-1}, zero[1:]...), -0.2))
		for _, c := range []struct {
			name   string
			rows   Rows
			lo, hi []float64
		}{
			{"simplex", Rows(SimplexBounds(dim)), zero, []float64{1, 1, 1, 1}[:dim]},
			{"box", Rows(NewBox(lo2, hi2).Region().HS), lo2, hi2},
			{"cut empty", Rows(cut.HS), nil, nil},
			{"trivially empty", append(Rows(SimplexBounds(dim)), Halfspace{A: zero, B: -1}), nil, nil},
		} {
			ok := c.rows.BoundingBox(lo, hi)
			if ok != (c.lo != nil) {
				t.Fatalf("dim %d %s: ok = %v", dim, c.name, ok)
			}
			for j := range lo {
				if !ok {
					if lo[j] <= hi[j] {
						t.Errorf("dim %d %s: empty region, box [%v, %v] on axis %d", dim, c.name, lo[j], hi[j], j)
					}
					continue
				}
				if math.Abs(lo[j]-(c.lo[j]-BoxPad)) > 1e-12 || math.Abs(hi[j]-(c.hi[j]+BoxPad)) > 1e-12 {
					t.Errorf("dim %d %s axis %d: box [%v, %v], want [%v, %v] padded by %v", dim, c.name, j, lo[j], hi[j], c.lo[j], c.hi[j], BoxPad)
				}
			}
		}
	}
}

func TestVolumeMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	// 3-dim simplex volume = 1/6; a halfspace through the centroid cuts it
	// roughly in half.
	full := NewRegion(3)
	if v := full.Volume(40000, rng.Float64); math.Abs(v-SimplexVolume(3)) > 0.01 {
		t.Errorf("3-simplex MC volume = %v, want %v", v, SimplexVolume(3))
	}
	half := NewRegion(3).Add(NewHalfspace([]float64{1, -1, 0}, 0))
	v := half.Volume(40000, rng.Float64)
	if math.Abs(v-SimplexVolume(3)/2) > 0.01 {
		t.Errorf("half 3-simplex MC volume = %v, want %v", v, SimplexVolume(3)/2)
	}
}

func TestSimplexVolume(t *testing.T) {
	want := map[int]float64{1: 1, 2: 0.5, 3: 1.0 / 6, 4: 1.0 / 24}
	for dim, v := range want {
		if got := SimplexVolume(dim); math.Abs(got-v) > 1e-12 {
			t.Errorf("SimplexVolume(%d) = %v, want %v", dim, got, v)
		}
	}
}
