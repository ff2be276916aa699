package geom

import "math"

// Rows is the bare form of a region: its halfspaces in insertion order with
// exact duplicates dropped — what Region.HS holds — and none of Region's
// identity (dedup keys, hash) or certificates (witness slack, empty flag).
// The point predicates below need nothing else; only the LP-backed ones
// (Feasible, ContainsHalfspace, Classify) need a Region. A Rows value may be
// shared by concurrent readers: no method writes through it.
type Rows []Halfspace

// ContainsPoint reports whether x satisfies every row within tol.
func (rs Rows) ContainsPoint(x []float64, tol float64) bool {
	for _, h := range rs {
		if h.Eval(x) > tol {
			return false
		}
	}
	return true
}

// sameRow reports whether two halfspaces carry the same coefficients bit for
// bit (and none is NaN) — the identity Halfspace.key hashes.
func sameRow(e, h Halfspace) bool {
	if e.B != h.B || math.Float64bits(e.B) != math.Float64bits(h.B) || len(e.A) != len(h.A) {
		return false
	}
	for j, v := range e.A {
		if v != h.A[j] || math.Float64bits(v) != math.Float64bits(h.A[j]) {
			return false
		}
	}
	return true
}

// RowBuf assembles Rows in reusable memory: Reset, then AddPref per
// halfspace, then read Rows, which stays valid until the next Reset.
type RowBuf struct {
	Rows  Rows
	arena []float64 // backs the coefficient vectors; see arenaAlloc
}

// Reset reinitializes b to the simplex bounds of dimension dim — the rows of
// a freshly Reset Region.
func (b *RowBuf) Reset(dim int) {
	b.Rows = append(b.Rows[:0], simplexBoundsCached(dim)...)
	b.arena = b.arena[:0]
}

// AddPref appends H⁺(ri, rj) unless an identical row is present: the rows a
// Region given the same calls would hold, without hashing them.
func (b *RowBuf) AddPref(ri, rj []float64) *RowBuf {
	dim := len(ri) - 1
	a := arenaAlloc(&b.arena, dim)
	h := Halfspace{A: a, B: prefInto(a, ri, rj)}
	for _, e := range b.Rows {
		if sameRow(e, h) {
			b.arena = b.arena[:len(b.arena)-dim]
			return b
		}
	}
	b.Rows = append(b.Rows, h)
	return b
}

// arenaAlloc returns n fresh float64 slots from the arena. When the current
// chunk is full a larger one is started and the old chunk abandoned (not
// copied), so coefficient slices handed out earlier remain valid.
func arenaAlloc(arena *[]float64, n int) []float64 {
	s := *arena
	if len(s)+n > cap(s) {
		s = make([]float64, 0, max(2*cap(s), 64, n))
	}
	*arena = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}
