package lp

import "math"

// The dense full-tableau kernel this package used until the condensed
// tableau of workspace.go replaced it, kept verbatim as the oracle of
// TestCondensedMatchesReference: one column per structural variable, per
// slack and per negative-rhs row's artificial, phase 1 minimising the sum
// of the artificials. It shares tolerances, pricing and tie-breaks with the
// live kernel and nothing else.

type refWorkspace struct {
	// Problem being assembled: m rows of n coefficients, flat.
	n, m int
	a    []float64 // m×n, row i at a[i*n : (i+1)*n]
	b    []float64

	// Tableau state. Columns are ordered structural vars [0,n), slacks
	// [n, n+m), artificials [n+m, n+m+nart); each row is stride wide with
	// the rhs in its last slot. obj holds the current phase's reduced costs.
	stride     int
	ncol, nart int
	artCol     int
	needPhase1 bool
	tab        []float64
	obj        []float64
	basis      []int
	banned     []bool

	x []float64 // extraction buffer aliased by Result.X
}

// refSolve solves p on a fresh dense tableau.
func refSolve(p Problem) Result {
	ws := new(refWorkspace)
	ws.Begin(len(p.C))
	for i, row := range p.A {
		copy(ws.AppendRow(p.B[i]), row)
	}
	return ws.SolveMax(p.C)
}

// Begin starts assembling a fresh problem with n structural variables,
// discarding any previous constraints. Buffers are retained.
func (ws *refWorkspace) Begin(n int) {
	ws.n = n
	ws.m = 0
	ws.a = ws.a[:0]
	ws.b = ws.b[:0]
}

// AppendRow adds the constraint row·x ≤ rhs and returns the zeroed
// coefficient slice of length n for the caller to fill. The slice aliases
// workspace memory and is invalidated by the next AppendRow or Begin.
func (ws *refWorkspace) AppendRow(rhs float64) []float64 {
	off := ws.m * ws.n
	ws.a = growZero(ws.a, off+ws.n)
	ws.b = append(ws.b, rhs)
	ws.m++
	return ws.a[off : off+ws.n]
}

// SolveMax maximizes c·x subject to the appended constraints and x ≥ 0,
// using the two-phase dense simplex method. Result.X aliases workspace
// memory: it is valid until the next SolveMax, Begin, or Put. A warmed-up
// workspace performs no heap allocations here.
func (ws *refWorkspace) SolveMax(c []float64) Result {
	n, m := ws.n, ws.m
	if m == 0 {
		// No constraints: optimum 0 at the origin unless some c_j > 0, in
		// which case the problem is unbounded (x ≥ 0 only). No row storage
		// or extraction work is needed — just the status and a zero point.
		for _, cj := range c {
			if cj > costTol {
				return Result{Status: Unbounded}
			}
		}
		ws.x = growZero(ws.x[:0], n)
		return Result{Status: Optimal, X: ws.x}
	}
	ws.buildTableau()
	if ws.needPhase1 {
		if !ws.phase1() {
			return Result{Status: Infeasible}
		}
	}
	if ws.phase2(c) == phaseUnbounded {
		return Result{Status: Unbounded}
	}
	x := ws.extract()
	obj := 0.0
	for j, cj := range c {
		obj += cj * x[j]
	}
	return Result{Status: Optimal, X: x, Objective: obj}
}

// row returns tableau row i (stride wide, rhs in the last slot).
func (ws *refWorkspace) row(i int) []float64 {
	return ws.tab[i*ws.stride : (i+1)*ws.stride]
}

// buildTableau lays out the simplex tableau for the assembled constraints in
// the flat backing array, adding one artificial variable per negative-rhs
// row (those need a phase-1 basis).
func (ws *refWorkspace) buildTableau() {
	n, m := ws.n, ws.m
	nart := 0
	for _, bi := range ws.b {
		if bi < 0 {
			nart++
		}
	}
	ncol := n + m + nart
	stride := ncol + 1
	ws.ncol, ws.nart, ws.stride = ncol, nart, stride
	ws.artCol = n + m
	ws.needPhase1 = nart > 0
	ws.tab = growZero(ws.tab[:0], m*stride)
	ws.obj = growZero(ws.obj[:0], stride)
	ws.banned = growZeroBool(ws.banned[:0], ncol)
	if cap(ws.basis) < m {
		ws.basis = make([]int, m)
	}
	ws.basis = ws.basis[:m]
	ai := 0
	for i := 0; i < m; i++ {
		row := ws.row(i)
		in := ws.a[i*n : (i+1)*n]
		sign := 1.0
		if ws.b[i] < 0 {
			sign = -1.0
		}
		for j, v := range in {
			row[j] = sign * v
		}
		row[n+i] = sign // slack
		row[ncol] = sign * ws.b[i]
		if sign < 0 {
			col := ws.artCol + ai
			row[col] = 1
			ws.basis[i] = col
			ai++
		} else {
			ws.basis[i] = n + i
		}
	}
}

// phase1 minimizes the sum of artificial variables. Returns false when the
// problem is infeasible.
func (ws *refWorkspace) phase1() bool {
	// Objective: maximize -(sum of artificials). Reduced costs start from
	// -1 on each artificial column, then are made consistent with the basis
	// (artificials are basic, so add their rows back in).
	for j := range ws.obj {
		ws.obj[j] = 0
	}
	for c := ws.artCol; c < ws.artCol+ws.nart; c++ {
		ws.obj[c] = -1
	}
	for i, b := range ws.basis {
		if b >= ws.artCol {
			addScaled(ws.obj, ws.row(i), 1)
		}
	}
	if ws.iterate() == phaseUnbounded {
		// Phase-1 objective is bounded above by 0; unbounded cannot happen
		// with exact arithmetic. Treat as numerical failure => infeasible.
		return false
	}
	// obj[ncol] holds -(current objective value); objective value is
	// -(sum of artificials) which is <= 0. Feasible iff it reached ~0.
	if -ws.obj[ws.ncol] < -feasTol {
		return false
	}
	// Drive any artificial variables out of the basis.
	for i := 0; i < ws.m; i++ {
		if ws.basis[i] < ws.artCol {
			continue
		}
		row := ws.row(i)
		pivoted := false
		for j := 0; j < ws.n+ws.m; j++ {
			if math.Abs(row[j]) > pivotTol {
				ws.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: zero it out; keep the artificial basic at 0.
			for j := range row {
				row[j] = 0
			}
		}
	}
	return true
}

// phase2 maximizes c over the current basic feasible solution.
func (ws *refWorkspace) phase2(c []float64) phaseOutcome {
	for j := range ws.obj {
		ws.obj[j] = 0
	}
	for j := 0; j < ws.n; j++ {
		ws.obj[j] = c[j]
	}
	// Forbid artificials from re-entering.
	for cc := ws.artCol; cc < ws.artCol+ws.nart; cc++ {
		ws.banned[cc] = true
	}
	// Price out the basic columns. A zero-valued artificial stuck in the
	// basis of a redundant row has an all-zero row and never affects
	// pricing.
	for i, b := range ws.basis {
		if b < ws.ncol && ws.obj[b] != 0 && !ws.banned[b] {
			addScaled(ws.obj, ws.row(i), -ws.obj[b])
		}
	}
	return ws.iterate()
}

// iterate runs simplex pivots until optimality or unboundedness. Dantzig's
// rule is used first; after a cycling-safe iteration budget it switches to
// Bland's rule, which guarantees termination.
func (ws *refWorkspace) iterate() phaseOutcome {
	maxDantzig := 50 * (ws.m + ws.ncol)
	maxTotal := 500*(ws.m+ws.ncol) + 10000
	for iter := 0; iter < maxTotal; iter++ {
		bland := iter >= maxDantzig
		col := ws.chooseEntering(bland)
		if col < 0 {
			return phaseOptimal
		}
		row := ws.chooseLeaving(col, bland)
		if row < 0 {
			return phaseUnbounded
		}
		ws.pivot(row, col)
	}
	// Iteration budget exhausted: accept the current (feasible) point as
	// optimal-enough. This is unreachable in practice for our problem sizes.
	return phaseOptimal
}

func (ws *refWorkspace) chooseEntering(bland bool) int {
	if bland {
		for j := 0; j < ws.ncol; j++ {
			if ws.obj[j] > costTol && !ws.banned[j] {
				return j
			}
		}
		return -1
	}
	best, bestv := -1, costTol
	for j := 0; j < ws.ncol; j++ {
		if v := ws.obj[j]; v > bestv && !ws.banned[j] {
			best, bestv = j, v
		}
	}
	return best
}

func (ws *refWorkspace) chooseLeaving(col int, bland bool) int {
	best := -1
	bestRatio := math.Inf(1)
	var bestPivot float64
	for i := 0; i < ws.m; i++ {
		row := ws.row(i)
		a := row[col]
		if a <= pivotTol {
			continue
		}
		ratio := row[ws.ncol] / a
		if ratio < bestRatio-1e-12 {
			best, bestRatio, bestPivot = i, ratio, a
		} else if ratio < bestRatio+1e-12 && best >= 0 {
			// Tie-break: Bland (lowest basis index) to avoid cycling.
			if bland && ws.basis[i] < ws.basis[best] {
				best, bestPivot = i, a
			} else if !bland && a > bestPivot {
				best, bestPivot = i, a // prefer larger pivot for stability
			}
		}
	}
	return best
}

func (ws *refWorkspace) pivot(row, col int) {
	pr := ws.row(row)
	pv := pr[col]
	inv := 1 / pv
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1 // exact
	for i := 0; i < ws.m; i++ {
		if i == row {
			continue
		}
		ri := ws.row(i)
		if f := ri[col]; f != 0 {
			addScaled(ri, pr, -f)
			ri[col] = 0
		}
	}
	if f := ws.obj[col]; f != 0 {
		addScaled(ws.obj, pr, -f)
		ws.obj[col] = 0
	}
	ws.basis[row] = col
}

func (ws *refWorkspace) extract() []float64 {
	ws.x = growZero(ws.x[:0], ws.n)
	x := ws.x
	for i, b := range ws.basis {
		if b < ws.n {
			x[b] = ws.tab[i*ws.stride+ws.ncol]
		}
	}
	// Clamp tiny negatives introduced by roundoff.
	for j := range x {
		if x[j] < 0 && x[j] > -1e-9 {
			x[j] = 0
		}
	}
	return x
}

func growZeroBool(s []bool, n int) []bool {
	if cap(s) < n {
		ns := make([]bool, n)
		copy(ns, s)
		return ns
	}
	old := len(s)
	s = s[:n]
	for i := old; i < n; i++ {
		s[i] = false
	}
	return s
}
