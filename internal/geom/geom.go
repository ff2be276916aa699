// Package geom provides the computational geometry of continuous preference
// space: reduced simplex coordinates, option-pair halfspaces, convex cell
// regions, and the LP-backed predicates (interior feasibility, halfspace
// containment, classification) plus Euclidean projection that the
// τ-LevelIndex builders and queries are made of.
//
// Coordinates. The preference simplex {w ∈ R^d : w[i] ≥ 0, Σ w[i] = 1} is
// parameterized by its first d−1 coordinates x = (w[1], …, w[d−1]) with
// w[d] = 1 − Σ x[k]. All regions, halfspaces, and distances live in this
// reduced space of dimension dim = d−1.
package geom

import "math"

// Reduce maps a full preference vector w (length d, summing to one) to its
// reduced coordinates (length d−1).
func Reduce(w []float64) []float64 {
	x := make([]float64, len(w)-1)
	copy(x, w[:len(w)-1])
	return x
}

// Lift maps reduced coordinates x back to a full preference vector with
// w[d] = 1 − Σ x[k].
func Lift(x []float64) []float64 {
	w := make([]float64, len(x)+1)
	s := 0.0
	for i, v := range x {
		w[i] = v
		s += v
	}
	w[len(x)] = 1 - s
	return w
}

// Score evaluates the linear scoring function S_w(r) at reduced coordinates
// x for an option r of dimension len(x)+1.
func Score(r, x []float64) float64 {
	d := len(r)
	s := r[d-1]
	for k := 0; k < d-1; k++ {
		s += (r[k] - r[d-1]) * x[k]
	}
	return s
}

// ScoreFull evaluates S_w(r) = r·w for a full weight vector.
func ScoreFull(r, w []float64) float64 {
	s := 0.0
	for i := range r {
		s += r[i] * w[i]
	}
	return s
}

// Halfspace is the closed set {x : A·x ≤ B} in reduced preference space.
// Rows are normalized to ‖A‖₂ = 1 on construction so absolute tolerances
// act uniformly; a zero A encodes the trivial halfspace (whole space when
// B ≥ 0, empty when B < 0).
type Halfspace struct {
	A []float64
	B float64
}

// NewHalfspace returns the normalized halfspace {x : a·x ≤ b}.
func NewHalfspace(a []float64, b float64) Halfspace {
	n := 0.0
	for _, v := range a {
		n += v * v
	}
	n = math.Sqrt(n)
	if n == 0 {
		return Halfspace{A: append([]float64(nil), a...), B: b}
	}
	aa := make([]float64, len(a))
	for i, v := range a {
		aa[i] = v / n
	}
	return Halfspace{A: aa, B: b / n}
}

// PrefHalfspace returns H⁺(ri, rj) = {x : S(ri, x) ≥ S(rj, x)}, the set of
// reduced preference vectors under which option ri scores at least rj.
func PrefHalfspace(ri, rj []float64) Halfspace {
	a := make([]float64, len(ri)-1)
	return Halfspace{A: a, B: prefInto(a, ri, rj)}
}

// prefInto writes the normal of H⁺(ri, rj) into a (length d−1), normalized
// as NewHalfspace would, and returns the offset B. It is the only copy of
// this arithmetic: PrefHalfspace, Region.AddPref and RowBuf.AddPref all go
// through it, so the rows they produce agree bit for bit. It sits exactly at
// the compiler's inlining budget, and a query assembles thousands of rows:
// routing the normalisation through a shared helper made it a call per row,
// 8–10 % of an ORU.
func prefInto(a, ri, rj []float64) float64 {
	// S(ri,x) − S(rj,x) = δ[d−1] + Σ_k (δ[k] − δ[d−1])·x[k] with δ = ri − rj.
	// The condition ≥ 0 in A·x ≤ B form is −coeff·x ≤ δ[d−1].
	last := ri[len(ri)-1] - rj[len(ri)-1]
	n := 0.0
	for k := range a {
		v := -((ri[k] - rj[k]) - last)
		a[k] = v
		n += v * v
	}
	n = math.Sqrt(n)
	if n == 0 {
		return last
	}
	for k := range a {
		a[k] /= n
	}
	return last / n
}

// key returns a canonical 64-bit identity of the halfspace, hashing the
// exact bit patterns of its (normalized) coefficients. PrefHalfspace and
// NewHalfspace are bit-deterministic for identical inputs, so equal
// halfspaces reached via different regions produce equal keys.
func (h Halfspace) key() uint64 {
	k := uint64(0x9e3779b97f4a7c15)
	for _, v := range h.A {
		k = mix64(k ^ math.Float64bits(v))
	}
	return mix64(k ^ math.Float64bits(h.B))
}

// mix64 is the splitmix64 finalizer: a cheap bijective bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Eval returns A·x − B; nonpositive values are inside the halfspace.
func (h Halfspace) Eval(x []float64) float64 {
	s := -h.B
	for i, v := range h.A {
		s += v * x[i]
	}
	return s
}

// Contains reports whether x lies inside the halfspace within tol.
func (h Halfspace) Contains(x []float64, tol float64) bool {
	return h.Eval(x) <= tol
}

// Neg returns the closure of the complement, {x : A·x ≥ B}.
func (h Halfspace) Neg() Halfspace {
	a := make([]float64, len(h.A))
	for i, v := range h.A {
		a[i] = -v
	}
	return Halfspace{A: a, B: -h.B}
}

// Trivial reports whether the halfspace has a zero normal. whole is true for
// the all-space case (B ≥ 0) and false for the empty case.
func (h Halfspace) Trivial() (trivial, whole bool) {
	for _, v := range h.A {
		if v != 0 {
			return false, false
		}
	}
	return true, h.B >= 0
}

// SimplexBounds returns the dim+1 halfspaces defining the reduced preference
// simplex: x[k] ≥ 0 for each k, and Σ x[k] ≤ 1.
func SimplexBounds(dim int) []Halfspace {
	hs := make([]Halfspace, 0, dim+1)
	for k := 0; k < dim; k++ {
		a := make([]float64, dim)
		a[k] = -1
		hs = append(hs, Halfspace{A: a, B: 0})
	}
	a := make([]float64, dim)
	for k := range a {
		a[k] = 1
	}
	hs = append(hs, NewHalfspace(a, 1))
	return hs
}

// Dist returns the Euclidean distance between reduced points.
func Dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
