package lp

import "sync/atomic"

// Process-wide tallies. SolveMax adds to each at most once per call — the
// pivots of a solve are summed in the workspace first — so an uncontended
// atomic add or two is noise next to a simplex run and allocates nothing:
// the zero-allocation guarantee of the kernel is preserved.
var solveCount, pivotCount, exhaustedCount atomic.Uint64

// Solves returns the total number of SolveMax calls since process start.
// The observability layer exposes it as the tlx_lp_solves_total gauge.
func Solves() uint64 { return solveCount.Load() }

// Pivots returns the total number of simplex pivots since process start
// (tlx_lp_pivots_total); divided by Solves it is the pivots per solve.
func Pivots() uint64 { return pivotCount.Load() }

// BudgetExhausted returns how many solves ran out of iteration budget and
// reported the point they had reached as optimal
// (tlx_lp_budget_exhausted_total). Anything but 0 deserves a look.
func BudgetExhausted() uint64 { return exhaustedCount.Load() }
