// Package lp implements a two-phase primal simplex solver for the small
// linear programs that arise in preference-space geometry: feasibility of
// halfspace intersections, halfspace-containment tests, and Chebyshev
// margins. Problems have at most a handful of structural variables (the
// reduced preference dimension, d-1 <= 7 in practice) under anything from a
// dozen to a few thousand inequality constraints, so the tableau is kept
// condensed: m rows of the n+1 nonbasic columns and the rhs, O(m·n) to
// store, to build and to pivot, where the textbook layout with a column per
// slack and per artificial is O(m²). Phase 1 uses the single shared
// artificial x0 of a_i·x − x0 ≤ b_i: one forced pivot into the most
// negative rhs makes the basis feasible, and maximizing −x0 from there
// either drives x0 to zero or proves the constraints empty. The solver
// replaces the lp_solve library used by the paper.
//
// The solver core lives in Workspace (workspace.go): a reusable flat-array
// tableau that performs zero heap allocations at steady state. Solve and
// SolveStatus are thin wrappers that borrow a pooled Workspace per call;
// hot paths (geom.Region predicates) drive a Workspace directly.
package lp

import (
	"errors"
	"fmt"
)

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means a bounded optimum was found; Result.X holds a maximizer.
	Optimal Status = iota
	// Infeasible means the constraint set is empty.
	Infeasible
	// Unbounded means the objective is unbounded above on the feasible set.
	Unbounded
)

// String implements fmt.Stringer for diagnostics.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Problem is a linear program in the canonical form
//
//	maximize  C·x
//	subject to  A x <= B,  x >= 0.
//
// All rows of A must have len(C) entries. B entries may be negative; the
// solver runs a phase-1 to find an initial basic feasible solution when
// needed.
type Problem struct {
	C []float64
	A [][]float64
	B []float64
}

// Result holds the outcome of Solve.
type Result struct {
	Status    Status
	X         []float64 // maximizer when Status == Optimal
	Objective float64   // C·X when Status == Optimal
}

// Numeric tolerances. The geometry layer normalizes constraint rows to unit
// norm, so these absolute tolerances behave like relative ones.
const (
	pivotTol = 1e-10 // minimum magnitude for a pivot element
	costTol  = 1e-9  // reduced-cost threshold for optimality
	feasTol  = 1e-7  // phase-1 objective threshold for feasibility
)

// ErrBadShape reports inconsistent problem dimensions.
var ErrBadShape = errors.New("lp: inconsistent problem dimensions")

type phaseOutcome int

const (
	phaseOptimal phaseOutcome = iota
	phaseUnbounded
)

// checkShape validates problem dimensions.
func checkShape(p Problem) error {
	n := len(p.C)
	if len(p.B) != len(p.A) {
		return ErrBadShape
	}
	for _, row := range p.A {
		if len(row) != n {
			return ErrBadShape
		}
	}
	return nil
}

// load assembles p into ws.
func load(ws *Workspace, p Problem) {
	ws.Begin(len(p.C))
	for i, row := range p.A {
		copy(ws.AppendRow(p.B[i]), row)
	}
}

// Solve runs the two-phase simplex method on p using a pooled Workspace. It
// never panics on valid shapes; numerically hopeless problems surface as one
// of the three statuses with a best-effort answer. Result.X is freshly
// allocated and safe to retain; callers on hot paths should drive a
// Workspace directly instead.
func Solve(p Problem) (Result, error) {
	if err := checkShape(p); err != nil {
		return Result{}, err
	}
	ws := Get()
	defer Put(ws)
	load(ws, p)
	res := ws.SolveMax(p.C)
	if res.X != nil {
		res.X = append([]float64(nil), res.X...)
	}
	return res, nil
}

// SolveStatus reports only the solve status, skipping the maximizer copy
// entirely — including the trivial m == 0 path's zero-slice — for callers
// that need a feasibility verdict and nothing else.
func SolveStatus(p Problem) (Status, error) {
	if err := checkShape(p); err != nil {
		return Infeasible, err
	}
	ws := Get()
	defer Put(ws)
	load(ws, p)
	return ws.SolveMax(p.C).Status, nil
}

// addScaled computes dst += f*src element-wise.
func addScaled(dst, src []float64, f float64) {
	_ = dst[len(src)-1]
	for j, v := range src {
		dst[j] += f * v
	}
}
