package geom

import "math"

// Projection tolerances; normals are unit length.
const (
	// projFeasTol is the violation, relative to the iterate's largest
	// coordinate when that exceeds one (it never does inside the simplex),
	// below which the iterate counts as inside a halfspace; the loop stops
	// when no halfspace exceeds it.
	projFeasTol = 1e-12
	// projDepTol bounds ‖z‖² for the component z of a normal orthogonal to
	// the active normals: at or below it the normal counts as a combination
	// of them (two unit normals closer than 1e-12 rad are parallel).
	projDepTol = 1e-24
	// projStackDim is the largest Dim whose working set fits the callers'
	// stack buffers; above it one projection allocates its own.
	projStackDim    = 8
	projStackFloats = projStackDim * (2*projStackDim + 5)
)

// activeSet is the state of one projection of x: the iterate y, the n
// halfspaces act[:n] it is held tight against and their multipliers
// lam[:n] ≥ 0, with x − y = Σ lam[i]·HS[act[i]].A throughout. The active
// normals are linearly independent (so n ≤ Dim) and kept factored as
// N = Q·R: q holds the orthonormal columns of Q and rt the columns of the
// upper triangular R, Dim floats apiece; one spare column in each takes the
// halfspace being added. coef is scratch.
type activeSet struct {
	y, lam, coef []float64
	q, rt        []float64
	act          []int
	n            int
}

// carveActiveSet lays an activeSet for dimension dim over the given buffers,
// allocating instead when they are too small.
func carveActiveSet(dim int, f []float64, act []int) activeSet {
	if need := dim * (2*dim + 5); need > len(f) {
		f, act = make([]float64, need), make([]int, dim)
	}
	col := (dim + 1) * dim
	return activeSet{
		y: f[:dim], lam: f[dim : 2*dim], coef: f[2*dim : 3*dim],
		q: f[3*dim : 3*dim+col], rt: f[3*dim+col : 3*dim+2*col],
		act: act[:dim],
	}
}

// orthogonalize subtracts from v its components along the first n columns
// of Q (modified Gram–Schmidt), stores them in col and returns what is left
// of ‖v‖². When most of v cancels, the remainder is no longer orthogonal to
// working precision and a second pass makes it so ("twice is enough"): the
// active halfspaces then stay tight under a step along v however long.
func (s *activeSet) orthogonalize(v, col []float64, n int) float64 {
	dim := len(v)
	clear(col[:n])
	vv := Dot(v, v)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			qi := s.q[i*dim : (i+1)*dim]
			d := Dot(qi, v)
			col[i] += d
			for k := range v {
				v[k] -= d * qi[k]
			}
		}
		before := vv
		if vv = Dot(v, v); 2*vv > before {
			break
		}
	}
	return vv
}

// drop removes active halfspace k and refactors the columns after it.
func (s *activeSet) drop(hs []Halfspace, k int) {
	dim := len(s.y)
	s.n--
	copy(s.act[k:], s.act[k+1:])
	copy(s.lam[k:], s.lam[k+1:])
	for j := k; j < s.n; j++ {
		qj, col := s.q[j*dim:(j+1)*dim], s.rt[j*dim:(j+1)*dim]
		copy(qj, hs[s.act[j]].A)
		col[j] = math.Sqrt(s.orthogonalize(qj, col, j))
		for i := range qj {
			qj[i] /= col[j]
		}
	}
}

// project computes the Euclidean projection of x onto the intersection of
// the rows into s.y and returns the distance, +Inf when it is empty. It is the
// Goldfarb–Idnani dual active-set method for min ½‖y−x‖² s.t. A·y ≤ B with
// an identity Hessian: y starts at x and is always the projection of x onto
// the intersection of the active halfspaces' boundaries, so ‖x−y‖ only grows
// and each active set is visited once — the loop is finite and its result
// exact, not a tolerance-limited iterate. Each round takes the most violated
// halfspace p and moves y along z, the part of p's normal orthogonal to the
// active normals, until p is tight (p joins the active set) or an active
// multiplier reaches zero first (that halfspace leaves and the round
// repeats). When z vanishes and no multiplier can decrease, p's normal is a
// nonpositive combination of active normals that y cannot satisfy: the
// region is empty.
func (rs Rows) project(x []float64, s *activeSet) float64 {
	dim := len(x)
	copy(s.y, x)
	empty := false
	steps, limit := 0, 8*(len(rs)+dim)
rounds:
	for {
		p, v := -1, projFeasTol
		for _, c := range s.y {
			v = max(v, projFeasTol*math.Abs(c))
		}
		for i := range rs {
			if e := rs[i].Eval(s.y); e > v {
				p, v = i, e
			}
		}
		if p < 0 {
			break
		}
		lamP := 0.0
		for {
			if steps++; steps > limit {
				// Unreachable in exact arithmetic; counted, and asserted zero
				// by the tests. ‖x−y‖ is still a lower bound on the distance.
				projectionStalls.Add(1)
				break rounds
			}
			n := s.n
			z, c := s.q[n*dim:(n+1)*dim], s.rt[n*dim:(n+1)*dim]
			copy(z, rs[p].A)
			zz := s.orthogonalize(z, c, n)
			// coef = N⁺·a_p by back-substitution through R: moving t along
			// −z takes t·coef[i] off lam[i] and adds t to p's multiplier.
			t, out := math.Inf(1), -1
			for i := n - 1; i >= 0; i-- {
				ci := c[i]
				for j := i + 1; j < n; j++ {
					ci -= s.rt[j*dim+i] * s.coef[j]
				}
				ci /= s.rt[i*dim+i]
				s.coef[i] = ci
				if ci > 0 && s.lam[i] < t*ci {
					t, out = s.lam[i]/ci, i
				}
			}
			if zz > projDepTol && v <= t*zz {
				t, out = v/zz, -1
			}
			if math.IsInf(t, 1) {
				empty = true
				break rounds
			}
			for i := 0; i < n; i++ {
				s.lam[i] = max(0, s.lam[i]-t*s.coef[i])
			}
			lamP += t
			for k := range z {
				s.y[k] -= t * z[k]
			}
			if out < 0 {
				c[n] = math.Sqrt(zz)
				for k := range z {
					z[k] /= c[n]
				}
				s.act[n], s.lam[n] = p, lamP
				s.n++
				break
			}
			s.drop(rs, out)
			v = max(0, rs[p].Eval(s.y))
		}
	}
	projectionCalls.Add(1)
	projectionSteps.Add(uint64(steps))
	if empty {
		return math.Inf(1)
	}
	return Dist(x, s.y)
}

// Project returns the Euclidean projection of x onto the region and the
// distance ‖x − proj‖; an empty region has no projection and is at
// distance +Inf. A point already inside (within PointTol) — the common ORU
// case — is its own projection at distance exactly zero.
func (r *Region) Project(x []float64) (proj []float64, dist float64) {
	return Rows(r.HS).Project(x)
}

// Project is Region.Project over bare rows, in dimension len(x).
func (rs Rows) Project(x []float64) (proj []float64, dist float64) {
	if rs.ContainsPoint(x, PointTol) {
		return append([]float64(nil), x...), 0
	}
	var fb [projStackFloats]float64
	var ib [projStackDim]int
	s := carveActiveSet(len(x), fb[:], ib[:])
	if dist = rs.project(x, &s); math.IsInf(dist, 1) {
		return nil, dist
	}
	return append([]float64(nil), s.y...), dist
}

// DistanceTo returns the Euclidean distance from x to the region (zero when
// x is inside, +Inf when the region is empty). Unlike Project it does not
// retain the projection, so it does not allocate.
func (r *Region) DistanceTo(x []float64) float64 { return Rows(r.HS).DistanceTo(x) }

// DistanceTo is Region.DistanceTo over bare rows, in dimension len(x).
func (rs Rows) DistanceTo(x []float64) float64 {
	if rs.ContainsPoint(x, PointTol) {
		return 0
	}
	var fb [projStackFloats]float64
	var ib [projStackDim]int
	s := carveActiveSet(len(x), fb[:], ib[:])
	return rs.project(x, &s)
}

// clipRows returns the rows hit-and-run must clip against to clip against
// all of hs. On a line (one dimension) whose every nontrivial row has a
// normal of exactly ±1, as normalized rows there do, those are the row of
// each sign with the least offset: along either direction a row's clip
// bound is a correctly rounded sum of ±B and the current point, monotone in
// B, so no other row can give a tighter bound or a different bit. Anything
// else clips against every row. The two rows are appended to out.
func clipRows(hs, out []Halfspace) []Halfspace {
	if len(hs) <= 2 || len(hs[0].A) != 1 {
		return hs
	}
	up, down := -1, -1
	for i, h := range hs {
		switch h.A[0] {
		case 1:
			if up < 0 || h.B < hs[up].B {
				up = i
			}
		case -1:
			if down < 0 || h.B < hs[down].B {
				down = i
			}
		case 0: // trivial: the clip skips it
		default:
			return hs
		}
	}
	for _, i := range [2]int{up, down} {
		if i >= 0 {
			out = append(out, hs[i])
		}
	}
	return out
}

// RandomInteriorPoints samples up to k points from the interior of the
// region using hit-and-run from the Chebyshev center. It returns nil when
// the region has no full-dimensional interior. rnd must return uniform
// variates in [0,1).
func (r *Region) RandomInteriorPoints(k int, rnd func() float64) [][]float64 {
	center, _, ok := r.ChebyshevCenter()
	if !ok {
		return nil
	}
	return r.SampleFrom(center, k, rnd)
}

// SampleFrom runs hit-and-run from a known interior point, avoiding the
// Chebyshev LP. The builders use it to breed cell sample sets from
// inherited witness points.
func (r *Region) SampleFrom(start []float64, k int, rnd func() float64) [][]float64 {
	slab := make([]float64, k*r.Dim) // the k points, one allocation
	r.SampleInto(slab, start, rnd)
	pts := make([][]float64, k)
	for i := range pts {
		pts[i] = slab[i*r.Dim : (i+1)*r.Dim : (i+1)*r.Dim]
	}
	return pts
}

// lineDirection returns the sign of math.Cos(x) for x in [0, 2π) without
// computing it. No float64 is a zero of the cosine, the nearest ones to π/2
// and 3π/2 both lie below them, and math.Cos gets the sign right that close
// (TestLineDirectionMatchesCos).
func lineDirection(x float64) float64 {
	if x <= math.Pi/2 || x > 3*math.Pi/2 {
		return 1
	}
	return -1
}

// SampleInto is SampleFrom writing its len(dst)/r.Dim samples' coordinates
// back to back into dst, so a caller can keep sample sets flat and carve
// many out of one allocation.
func (r *Region) SampleInto(dst []float64, center []float64, rnd func() float64) {
	var curA, dirA [8]float64
	cur, dir := curA[:0], dirA[:0]
	if r.Dim > len(curA) {
		cur, dir = make([]float64, 0, r.Dim), make([]float64, 0, r.Dim)
	}
	cur = append(cur, center...)
	dir = dir[:r.Dim]
	var bound [2]Halfspace
	clip := clipRows(r.HS, bound[:0])
	for len(dst) > 0 {
		if len(dir) == 1 {
			// On a line the normalised direction is the sign of the normal
			// draw below: x/√(x·x) is ±1 exactly, and the radius factor is
			// positive, so only the sign of the cosine decides. The draws
			// are the same.
			rnd()
			dir[0] = lineDirection(2 * math.Pi * rnd())
		} else {
			// Random direction on the unit sphere via Box-Muller-ish normals.
			norm := 0.0
			for i := range dir {
				u1 := math.Max(rnd(), 1e-12)
				u2 := rnd()
				dir[i] = math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
				norm += dir[i] * dir[i]
			}
			norm = math.Sqrt(norm)
			if norm == 0 {
				continue
			}
			for i := range dir {
				dir[i] /= norm
			}
		}
		// Clip the line cur + t·dir against every halfspace.
		lo, hi := math.Inf(-1), math.Inf(1)
		for _, h := range clip {
			ad := Dot(h.A, dir)
			ax := h.Eval(cur) // A·cur − B
			switch {
			case ad > 1e-12:
				if t := -ax / ad; t < hi {
					hi = t
				}
			case ad < -1e-12:
				if t := -ax / ad; t > lo {
					lo = t
				}
			default:
				if triv, _ := h.Trivial(); !triv && ax > 0 {
					lo, hi = 1, 0 // infeasible direction; shouldn't happen
				}
			}
		}
		if !(hi > lo) {
			cur = append(cur[:0], center...)
			continue
		}
		t := lo + (hi-lo)*rnd()
		for i := range cur {
			cur[i] += t * dir[i]
		}
		copy(dst, cur)
		dst = dst[r.Dim:]
	}
}
