package geom

import (
	"math"

	"tlevelindex/internal/lp"
)

// SimplexVolume returns the volume of the reduced preference simplex
// {x ≥ 0, Σx ≤ 1} in R^dim, which is 1/dim!.
func SimplexVolume(dim int) float64 {
	v := 1.0
	for i := 2; i <= dim; i++ {
		v /= float64(i)
	}
	return v
}

// Volume computes the region's volume. Dimensions 1 and 2 are exact
// (interval length, the shoelace formula over the clipped polygon); higher
// dimensions fall back to Monte Carlo over the simplex with the given sample
// count and uniform source. Returns 0 for empty regions.
func (r *Region) Volume(samples int, rnd func() float64) float64 {
	switch r.Dim {
	case 1:
		lo, hi, ok := Rows(r.HS).interval()
		if !ok {
			return 0
		}
		return hi - lo
	case 2:
		var a, b [16][2]float64
		v := Rows(r.HS).polygon(a[:0], b[:0])
		area := 0.0
		for i, p := range v {
			q := v[(i+1)%len(v)]
			area += p[0]*q[1] - q[0]*p[1]
		}
		return math.Abs(area) / 2
	default:
		return r.volumeMC(samples, rnd)
	}
}

// BoxPad is how far BoundingBox pads a box outward past the extent it
// computed, so that rounding in the clip or the LP never leaves a point of
// the region outside its box.
const BoxPad = 1e-10

// BoundingBox writes the axis-aligned bounding box of the rows' region into
// lo and hi (each of the region's dimension), padded outward by BoxPad. It
// reports false, leaving every lo[j] > hi[j], when the region is empty. A
// 1-dimensional region is read off its rows, a 2-dimensional one is the
// simplex clipped by every row, and higher dimensions take 2·dim LPs.
func (rs Rows) BoundingBox(lo, hi []float64) bool {
	for j := range lo {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	switch len(lo) {
	case 1:
		l, h, ok := rs.interval()
		if !ok {
			return false
		}
		lo[0], hi[0] = l, h
	case 2:
		var a, b [16][2]float64
		v := rs.polygon(a[:0], b[:0])
		if len(v) == 0 {
			return false
		}
		for _, p := range v {
			for j := range 2 {
				lo[j], hi[j] = min(lo[j], p[j]), max(hi[j], p[j])
			}
		}
	default:
		ws := lp.Get()
		defer lp.Put(ws)
		ws.Begin(len(lo))
		for _, h := range rs {
			copy(ws.AppendRow(h.B), h.A) // a trivially empty row, 0 ≤ B < 0, is infeasible
		}
		c := ws.Cost()
		for j := range lo {
			c[j] = 1
			res := ws.SolveMax(c)
			if res.Status == lp.Infeasible { // only ever the first solve
				return false
			}
			hi[j] = res.Objective
			c[j] = -1
			lo[j] = -ws.SolveMax(c).Objective
			c[j] = 0
		}
	}
	for j := range lo {
		lo[j] -= BoxPad
		hi[j] += BoxPad
	}
	return true
}

// interval computes the exact [lo, hi] extent of a 1-dimensional region.
func (rs Rows) interval() (lo, hi float64, ok bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	for _, h := range rs {
		if triv, whole := h.Trivial(); triv {
			if !whole {
				return 0, 0, false
			}
			continue
		}
		a, b := h.A[0], h.B
		switch {
		case a > 0:
			if ub := b / a; ub < hi {
				hi = ub
			}
		case a < 0:
			if lb := b / a; lb > lo {
				lo = lb
			}
		default:
			if b < 0 {
				return 0, 0, false
			}
		}
	}
	if hi < lo {
		return 0, 0, false
	}
	return lo, hi, true
}

// polygon clips the simplex triangle by every row in turn
// (Sutherland–Hodgman) and returns the vertices of the 2-dimensional region
// in counter-clockwise order, none when it is empty. poly and tmp are the
// two vertex buffers the clip alternates between; the result is one of them.
func (rs Rows) polygon(poly, tmp [][2]float64) [][2]float64 {
	poly = append(poly[:0], [2]float64{0, 0}, [2]float64{1, 0}, [2]float64{0, 1})
	for _, h := range rs {
		tmp = tmp[:0]
		p := poly[len(poly)-1]
		ep := h.A[0]*p[0] + h.A[1]*p[1] - h.B
		for _, q := range poly {
			eq := h.A[0]*q[0] + h.A[1]*q[1] - h.B
			if (ep <= 0) != (eq <= 0) {
				t := ep / (ep - eq)
				tmp = append(tmp, [2]float64{p[0] + t*(q[0]-p[0]), p[1] + t*(q[1]-p[1])})
			}
			if eq <= 0 {
				tmp = append(tmp, q)
			}
			p, ep = q, eq
		}
		poly, tmp = tmp, poly
		if len(poly) == 0 {
			break
		}
	}
	return poly
}

// volumeMC estimates the volume by uniform sampling over the simplex.
func (r *Region) volumeMC(samples int, rnd func() float64) float64 {
	if samples <= 0 {
		samples = 20000
	}
	hit := 0
	for i := 0; i < samples; i++ {
		x := sampleSimplex(r.Dim, rnd)
		if r.ContainsPoint(x, 1e-9) {
			hit++
		}
	}
	return SimplexVolume(r.Dim) * float64(hit) / float64(samples)
}

// sampleSimplex draws a uniform point from {x ≥ 0, Σx ≤ 1} via exponential
// spacings over the (dim+1)-simplex, dropping the last coordinate.
func sampleSimplex(dim int, rnd func() float64) []float64 {
	e := make([]float64, dim+1)
	s := 0.0
	for i := range e {
		e[i] = -math.Log(math.Max(rnd(), 1e-15))
		s += e[i]
	}
	x := make([]float64, dim)
	for i := range x {
		x[i] = e[i] / s
	}
	return x
}
