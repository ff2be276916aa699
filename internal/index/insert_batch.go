package index

import (
	"errors"
	"math"
	"slices"
	"time"

	"tlevelindex/internal/skyline"
)

// errNotFinite rejects an option with a NaN or infinite coordinate: it
// scores NaN or ±Inf under some weight vector, so no rank order over it
// exists, and once in the pool it would take part in every later rebuild.
var errNotFinite = errors.New("index: option has a non-finite coordinate")

// finite reports whether every coordinate of r is a finite number.
func finite(r []float64) bool {
	for _, v := range r {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// BatchStats reports what one InsertBatch call did — the numbers the serve
// layer attaches to its ingest spans and the bench harness reports.
type BatchStats struct {
	// Accepted counts options that survived the τ-skyband and duplicate
	// prefilters and joined the pool.
	Accepted int
	// ThawNS is always 0: a batch no longer thaws the index, it rebuilds it.
	// The field stays only for the readers that still report it.
	ThawNS int64
	// FinalizeNS is the wall time of the rebuild over the grown pool (0 when
	// every option was filtered and the index was never touched).
	FinalizeNS int64
}

// Successor starts the next version of ix: the same τ, dataset, worker
// bound, hooks, input size and backing, the same pool, and no cells. The
// pool slices are ix's with their capacity clipped, so admitting into the
// successor appends to fresh arrays and never writes into anything ix's
// readers see; the dataset is shared, since nothing writes it. AdmitBatch,
// ExtendTau and Rebuild then run on the successor alone, and it is
// published once Rebuild has given it cells; ix itself is never changed.
func (ix *Index) Successor() *Index {
	next := *ix
	next.Pts, next.OrigIDs = slices.Clip(ix.Pts), slices.Clip(ix.OrigIDs)
	next.Cells, next.Levels, next.flat = nil, nil, nil
	next.Stats = BuildStats{InputOptions: ix.Stats.InputOptions}
	return &next
}

// AdmitBatch is the first half of an insert batch: it admits newly arrived
// options to the pool, in order, and leaves the cells as they were. An
// option joins the pool only when it can rank within τ — it survives the
// τ-skyband test against the pool as grown by the records before it — and
// is not an exact duplicate of a pool member; otherwise it changes nothing.
// Accepted options take the next filtered ids, so the ids already handed
// out never move. ids[i] is the filtered id of rs[i], or -1 when it was
// filtered out or errs[i] is non-nil; a per-item dimensionality mismatch
// or non-finite coordinate rejects only that item.
//
// Until Rebuild runs, which it must when stats.Accepted > 0, the index
// answers no query and is not serialized, so AdmitBatch runs only on an
// index no reader holds: a Successor, or one just built.
//
// The paper updates the index with IBA (§6.2: "IBA inserts it into the
// τ-LevelIndex accordingly"). Here a batch that accepts anything instead
// replaces the cells with a PBA⁺ build over the grown pool (Rebuild), the
// same build Build runs after its filter, with no second skyband pass. The
// index after a batch is therefore the one Build(pool, SkipFilter) makes,
// byte for byte once the ids and the input size are carried over, however
// the options were cut into batches; DESIGN §20 has the measurements that
// retired the IBA update path.
func (ix *Index) AdmitBatch(rs [][]float64) ([]int32, []error, BatchStats) {
	ids := make([]int32, len(rs))
	errs := make([]error, len(rs))
	pool := len(ix.Pts)
	for bi, r := range rs {
		ids[bi] = -1
		switch {
		case len(r) != ix.Dim:
			errs[bi] = errors.New("index: option dimensionality mismatch")
			continue
		case !finite(r):
			errs[bi] = errNotFinite
			continue
		case ix.dominatedTau(r):
			continue
		}
		ids[bi] = ix.admit(r, -1) // a duplicate resolves to its id
	}
	return ids, errs, BatchStats{Accepted: len(ix.Pts) - pool}
}

// admit returns the filtered id of the pool option with r's coordinates,
// first appending r under dataset id orig when the pool has none. It is
// the one place the pool grows, and membership is by coordinates: an
// option an insert admitted carries no dataset id (orig -1; the caller's
// row, so it is copied) and is never admitted a second time.
func (ix *Index) admit(r []float64, orig int) int32 {
	if i := ix.poolIndex(r); i >= 0 {
		return i
	}
	if orig < 0 {
		r = slices.Clone(r)
	}
	ix.Pts = append(ix.Pts, r)
	ix.OrigIDs = append(ix.OrigIDs, orig)
	return int32(len(ix.Pts) - 1)
}

// Rebuild is the second half of an insert batch: it replaces the cells with a
// PBA⁺ build over the pool and returns the build's wall time in ns.
func (ix *Index) Rebuild() int64 {
	start := time.Now()
	ix.build(PBAPlus, 0)
	return time.Since(start).Nanoseconds()
}

// dominatedTau reports whether τ pool options dominate r, so that r can
// never rank top-τ.
func (ix *Index) dominatedTau(r []float64) bool {
	dominators := 0
	for _, p := range ix.Pts {
		if skyline.Dominates(p, r) {
			if dominators++; dominators >= ix.Tau {
				return true
			}
		}
	}
	return false
}

// poolIndex returns the filtered id of the pool option equal to r, or -1.
func (ix *Index) poolIndex(r []float64) int32 {
	for i, p := range ix.Pts {
		if equalVec(p, r) {
			return int32(i)
		}
	}
	return -1
}
