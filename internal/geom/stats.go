package geom

import "sync/atomic"

// Process-wide instrumentation counters for the predicate layer. They are
// plain atomic adds on paths that each replace (or bound) an LP solve, so
// the cost is noise relative to the work being counted and nothing here
// allocates — the predicate layer stays zero-allocation with or without a
// scraper attached.
var (
	witnessSettles    atomic.Uint64 // Feasible answered by a cached witness
	witnessEscapes    atomic.Uint64 // ContainsHalfspace refuted by the witness
	witnessClassifies atomic.Uint64 // Classify sides settled by the witness
	projectionCalls   atomic.Uint64 // Project / DistanceTo runs past the inside check
	projectionSteps   atomic.Uint64 // active-set steps those runs took
	projectionStalls  atomic.Uint64 // runs cut off by the step bound; tests hold it at zero
)

// WitnessStats returns cumulative witness fast-path hits: Feasible calls
// settled without an LP, ContainsHalfspace refutations, and Classify calls
// where the witness eliminated one side's LP.
func WitnessStats() (settles, escapes, classifies uint64) {
	return witnessSettles.Load(), witnessEscapes.Load(), witnessClassifies.Load()
}

// ProjectionStats returns the number of projections computed (points
// already inside their region are not counted) and the total active-set
// steps they took.
func ProjectionStats() (calls, iterations uint64) {
	return projectionCalls.Load(), projectionSteps.Load()
}
