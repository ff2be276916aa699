package lp

import (
	"math"
	"slices"
	"sync/atomic"

	"tlevelindex/internal/pool"
)

// Workspace is a reusable linear-programming scratch space holding a
// condensed simplex tableau: only the nonbasic columns are stored, so a
// problem with m rows and n variables occupies m rows of n+2 floats — the n
// columns that start out as the structural variables, one column for the
// phase-1 artificial x0, and the rhs — and a pivot, the tableau build and
// the memory are all O(m·n) however many constraints there are. basis[i]
// and nonbasic[j] record which variable row i and column j currently stand
// for; a pivot swaps one label pair and rewrites the entering column in
// place as the leaving variable's. Variables are labelled structurals
// [0,n), slacks [n,n+m), x0 = n+m.
//
// Phase 1 never reads the objective, so the basic feasible tableau it
// leaves (or its verdict that the rows are empty) is a function of the
// assembled rows alone. The workspace keeps that start until Begin or
// AppendRow changes the rows, and every later SolveMax copies it back and
// runs phase 2 only: k objectives over one constraint set cost one phase 1
// and k phase 2s, with each Result equal bit for bit to that of a fresh
// workspace solving the same objective.
//
// One flat []float64 backs the tableau (rows addressed by stride, not
// [][]float64) and a second holds the constraint matrix being assembled.
// All buffers grow monotonically and are recycled, so a warmed-up Workspace
// solves LPs with zero heap allocations — the property the predicate layer
// (geom.Region) depends on to keep builders out of the garbage collector.
//
// Usage:
//
//	ws := lp.Get()
//	defer lp.Put(ws)
//	ws.Begin(n)
//	row := ws.AppendRow(b)  // fill the returned coefficient slice
//	...
//	res := ws.SolveMax(c)   // res.X aliases ws memory
//
// A Workspace is not safe for concurrent use; Get/Put hand private instances
// to each goroutine through a sync.Pool.
type Workspace struct {
	// Problem being assembled: m rows of n coefficients, flat.
	n, m int
	a    []float64 // m×n, row i at a[i*n : (i+1)*n]
	b    []float64

	// Tableau state. Row i is basis[i] + Σ_j tab[i][j]·nonbasic[j] = rhs,
	// stride wide with the rhs in its last slot (index ncol). obj holds the
	// current phase's reduced costs, and minus its objective value in the
	// rhs slot.
	ncol, stride int // ncol = n+1: x0's column is n until a pivot moves it
	tab          []float64
	obj          []float64
	basis        []int
	nonbasic     []int

	// The start phase 2 begins from for the current rows: set says it is
	// computed, feasible that phase 1 found a basis. A start that phase 1
	// pivoted to is saved in the start* buffers; otherwise it is the slack
	// basis buildTableau lays out, and is laid out again.
	set, feasible, saved bool
	startTab             []float64
	startBasis           []int
	startNonbasic        []int

	// id and gen make up Version: id is unique to the workspace, gen counts
	// the changes to its rows.
	id, gen uint64

	pivots    uint64 // of the current SolveMax
	exhausted bool   // iterate ran out of budget during the current SolveMax

	x []float64 // extraction buffer aliased by Result.X
	c []float64 // cost buffer handed out by Cost
}

// workspaces recycles Workspaces across goroutines; see Get and Put.
var workspaces = pool.NewScratch(func() *Workspace { return new(Workspace) })

// workspaceIDs numbers workspaces for Version, from 1: the zero Version is
// no workspace's.
var workspaceIDs atomic.Uint64

// Get returns a Workspace from the shared pool. Pair it with Put.
func Get() *Workspace { return workspaces.Get() }

// Put recycles a Workspace obtained from Get. Results returned by its Solve
// methods (Result.X) must not be used after Put.
func Put(ws *Workspace) { workspaces.Put(ws) }

// Begin starts assembling a fresh problem with n structural variables,
// discarding any previous constraints. Buffers are retained.
func (ws *Workspace) Begin(n int) {
	ws.n = n
	ws.m = 0
	ws.a = ws.a[:0]
	ws.b = ws.b[:0]
	ws.changed()
}

// AppendRow adds the constraint row·x ≤ rhs and returns the zeroed
// coefficient slice of length n for the caller to fill. The slice aliases
// workspace memory and is invalidated by the next AppendRow or Begin.
func (ws *Workspace) AppendRow(rhs float64) []float64 {
	off := ws.m * ws.n
	ws.a = growZero(ws.a, off+ws.n)
	ws.b = append(ws.b, rhs)
	ws.m++
	ws.changed()
	return ws.a[off : off+ws.n]
}

// changed records a change to the rows: the start is stale, and so is
// every Version handed out before.
func (ws *Workspace) changed() {
	ws.set = false
	ws.gen++
}

// Rows returns the number of constraints appended since Begin.
func (ws *Workspace) Rows() int { return ws.m }

// Version identifies the constraint set a workspace holds: its value
// changes with every Begin and AppendRow, and no two workspaces share one.
// A caller that assembled rows and noted the Version can tell, when it gets
// a workspace again, whether that one still holds them, start included.
type Version struct{ id, gen uint64 }

// Version returns the workspace's current Version, never the zero one.
func (ws *Workspace) Version() Version {
	if ws.id == 0 {
		ws.id = workspaceIDs.Add(1)
	}
	return Version{ws.id, ws.gen}
}

// Cost returns a zeroed objective vector of length n backed by workspace
// memory, for callers that assemble the objective incrementally. It is
// invalidated by Begin with a larger n.
func (ws *Workspace) Cost() []float64 {
	ws.c = growZero(ws.c[:0], ws.n)
	return ws.c
}

// SolveMax maximizes c·x subject to the appended constraints and x ≥ 0,
// using the two-phase simplex method on the condensed tableau. Result.X
// aliases workspace memory: it is valid until the next SolveMax, Begin, or
// Put. The appended rows are left untouched, so several objectives can be
// solved over one assembled constraint set, and all but the first of them
// start from the basis phase 1 found (or its infeasible verdict). A
// warmed-up workspace performs no heap allocations here.
func (ws *Workspace) SolveMax(c []float64) Result {
	solveCount.Add(1)
	ws.pivots, ws.exhausted = 0, false
	res := ws.solve(c)
	if ws.pivots > 0 {
		pivotCount.Add(ws.pivots)
	}
	if ws.exhausted {
		exhaustedCount.Add(1)
	}
	return res
}

func (ws *Workspace) solve(c []float64) Result {
	if ws.m == 0 {
		// No constraints: optimum 0 at the origin unless some c_j > 0, in
		// which case the problem is unbounded (x ≥ 0 only). No row storage
		// or extraction work is needed — just the status and a zero point.
		for _, cj := range c {
			if cj > costTol {
				return Result{Status: Unbounded}
			}
		}
		ws.x = growZero(ws.x[:0], ws.n)
		return Result{Status: Optimal, X: ws.x}
	}
	if !ws.start() {
		return Result{Status: Infeasible}
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

// start lays out the basic feasible tableau phase 2 begins from and reports
// whether there is one. The first call over a constraint set runs phase 1
// when the origin is infeasible and saves where it led; later calls copy
// that back, bytes and labels, so phase 2 meets the tableau it would have
// met after a phase 1 of its own.
func (ws *Workspace) start() bool {
	switch {
	case !ws.set:
		worst := ws.buildTableau()
		ws.feasible = worst < 0 || ws.phase1(worst)
		ws.set, ws.saved = true, worst >= 0 && ws.feasible
		if ws.saved {
			ws.startTab = append(ws.startTab[:0], ws.tab...)
			ws.startBasis = append(ws.startBasis[:0], ws.basis...)
			ws.startNonbasic = append(ws.startNonbasic[:0], ws.nonbasic...)
		}
	case !ws.feasible:
	case ws.saved:
		copy(ws.tab, ws.startTab)
		copy(ws.basis, ws.startBasis)
		copy(ws.nonbasic, ws.startNonbasic)
	default:
		ws.buildTableau() // the origin is feasible: the start is the slack basis
	}
	return ws.feasible
}

// row returns tableau row i (stride wide, rhs in the last slot).
func (ws *Workspace) row(i int) []float64 {
	return ws.tab[i*ws.stride : (i+1)*ws.stride]
}

// buildTableau lays out a_i·x − x0 + s_i = b_i with the slacks basic and
// returns the row with the most negative rhs, or −1 when the origin is
// feasible and no phase 1 is needed; x0's column is then zero from the
// start, which is what banning it amounts to.
func (ws *Workspace) buildTableau() (worst int) {
	n, m := ws.n, ws.m
	ws.ncol, ws.stride = n+1, n+2
	worst = -1
	least := 0.0
	for i, bi := range ws.b {
		if bi < least {
			worst, least = i, bi
		}
	}
	x0 := 0.0
	if worst >= 0 {
		x0 = -1
	}
	ws.tab = grow(ws.tab, m*ws.stride)
	ws.obj = growZero(ws.obj[:0], ws.stride)
	ws.basis = grow(ws.basis, m)
	ws.nonbasic = grow(ws.nonbasic, ws.ncol)
	for i := 0; i < m; i++ {
		row := ws.row(i)
		copy(row, ws.a[i*n:(i+1)*n])
		row[n] = x0
		row[n+1] = ws.b[i]
		ws.basis[i] = n + i
	}
	for j := 0; j < n; j++ {
		ws.nonbasic[j] = j
	}
	ws.nonbasic[n] = n + m
	return worst
}

// phase1 maximizes −x0 from the basis that one forced pivot of x0 into the
// most infeasible row makes feasible, then retires x0. Returns false when
// the problem is infeasible.
func (ws *Workspace) phase1(worst int) bool {
	ws.obj[ws.n] = -1
	ws.pivot(worst, ws.n)
	if ws.iterate() == phaseUnbounded {
		// −x0 is bounded above by 0; unbounded cannot happen with exact
		// arithmetic. Treat as numerical failure => infeasible.
		return false
	}
	// The rhs slot holds minus the objective, i.e. x0 itself. Feasible iff
	// it reached ~0.
	if ws.obj[ws.ncol] > feasTol {
		return false
	}
	x0 := ws.n + ws.m
	col := slices.Index(ws.nonbasic, x0)
	if col < 0 {
		// x0 is still basic, at ~0: pivot it out on its row's largest entry.
		i := slices.Index(ws.basis, x0)
		row := ws.row(i)
		big := pivotTol
		for j, a := range row[:ws.ncol] {
			if a = math.Abs(a); a > big {
				col, big = j, a
			}
		}
		if col < 0 {
			// Redundant row: zero it out; keep x0 basic at 0. Every column
			// is then a real variable and nothing is left to ban.
			clear(row)
			return true
		}
		ws.pivot(i, col)
	}
	// Ban x0 from re-entering: a zero column never prices in and stays zero
	// under every later pivot.
	for i := col; i < len(ws.tab); i += ws.stride {
		ws.tab[i] = 0
	}
	return true
}

// phase2 maximizes c over the current basic feasible solution.
func (ws *Workspace) phase2(c []float64) phaseOutcome {
	clear(ws.obj)
	for j, v := range ws.nonbasic {
		if v < ws.n {
			ws.obj[j] = c[v]
		}
	}
	// Price out the basic structurals.
	for i, v := range ws.basis {
		if v < ws.n && c[v] != 0 {
			addScaled(ws.obj, ws.row(i), -c[v])
		}
	}
	return ws.iterate()
}

// iterate runs simplex pivots until optimality or unboundedness. Dantzig's
// rule is used first; after a cycling-safe iteration budget it switches to
// Bland's rule, which guarantees termination.
func (ws *Workspace) iterate() phaseOutcome {
	size := 2*ws.m + ws.ncol // rows plus variables
	maxDantzig := 50 * size
	maxTotal := 500*size + 10000
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
	ws.exhausted = true
	return phaseOptimal
}

// chooseEntering picks the column with the largest reduced cost (Dantzig)
// or the lowest-labelled improving one (Bland). Equal costs go to the lower
// label — the order a full tableau's left-to-right column scan gives, so
// that a phase runs through the pivots the dense reference kernel
// (reference_test.go) would, to results equal bit for bit.
func (ws *Workspace) chooseEntering(bland bool) int {
	best, bestv := -1, costTol
	for j, v := range ws.obj[:ws.ncol] {
		if v <= costTol {
			continue
		}
		switch {
		case best < 0:
		case bland || v == bestv:
			if ws.nonbasic[j] > ws.nonbasic[best] {
				continue
			}
		case v < bestv:
			continue
		}
		best, bestv = j, v
	}
	return best
}

func (ws *Workspace) chooseLeaving(col int, bland bool) int {
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

// pivot makes nonbasic[col] basic in row and basis[row] nonbasic in col.
// Column col is rewritten as the leaving variable's: 1/p in the pivot row,
// −f/p elsewhere — the values a full tableau would hold there.
func (ws *Workspace) pivot(row, col int) {
	pr := ws.row(row)
	inv := 1 / pr[col]
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = inv
	for i := 0; i < ws.m; i++ {
		if i == row {
			continue
		}
		ri := ws.row(i)
		if f := ri[col]; f != 0 {
			ri[col] = 0
			addScaled(ri, pr, -f)
		}
	}
	if f := ws.obj[col]; f != 0 {
		ws.obj[col] = 0
		addScaled(ws.obj, pr, -f)
	}
	ws.basis[row], ws.nonbasic[col] = ws.nonbasic[col], ws.basis[row]
	ws.pivots++
}

func (ws *Workspace) extract() []float64 {
	ws.x = growZero(ws.x[:0], ws.n)
	x := ws.x
	for i, v := range ws.basis {
		if v < ws.n {
			x[v] = ws.tab[i*ws.stride+ws.ncol]
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

// growZero extends s to length n, reusing capacity when possible, and zeroes
// the appended region. The caller passes s already truncated to the prefix
// it wants kept (usually s[:0]).
func growZero(s []float64, n int) []float64 {
	if cap(s) < n {
		ns := make([]float64, n)
		copy(ns, s)
		return ns
	}
	old := len(s)
	s = s[:n]
	for i := old; i < n; i++ {
		s[i] = 0
	}
	return s
}

// grow returns s with length n, reusing capacity; the contents are stale
// and the caller's to overwrite.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
