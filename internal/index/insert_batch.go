package index

import (
	"errors"
	"math"
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

// InsertBatch adds newly arrived options to a built index, in order. An
// option joins the pool only when it can rank within τ — it survives the
// τ-skyband test against the pool as grown by the records before it — and
// is not an exact duplicate of a pool member; otherwise it changes nothing.
// Accepted options take the next filtered ids, so the ids already handed
// out never move.
//
// The paper updates the index with IBA (§6.2: "IBA inserts it into the
// τ-LevelIndex accordingly"). Here a batch that accepts anything instead
// replaces the cells with a PBA⁺ build over the grown pool, the same build
// Build runs after its filter, with no second skyband pass. The index after
// a batch is therefore the one Build(pool, SkipFilter) makes, byte for
// byte once the ids and the input size are carried over, however the
// options were cut into batches; DESIGN §20 has the measurements that
// retired the IBA update path.
//
// ids[i] is the filtered id of rs[i], or -1 when it was filtered out or
// errs[i] is non-nil. A per-item dimensionality mismatch or non-finite
// coordinate rejects only that item. A batch whose every option is filtered
// leaves the index untouched.
func (ix *Index) InsertBatch(rs [][]float64) ([]int32, []error, BatchStats) {
	ids, errs, stats := ix.AdmitBatch(rs)
	if stats.Accepted > 0 {
		stats.FinalizeNS = ix.Rebuild()
	}
	return ids, errs, stats
}

// AdmitBatch is the first half of InsertBatch: it filters rs and appends
// the accepted options to the pool, returning the same ids and errors, but
// leaves the cells as they were. Until Rebuild runs, which it must when
// stats.Accepted > 0, the index answers no query and is not serialized.
func (ix *Index) AdmitBatch(rs [][]float64) ([]int32, []error, BatchStats) {
	ids := make([]int32, len(rs))
	errs := make([]error, len(rs))
	var stats BatchStats
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
		if i := ix.poolIndex(r); i >= 0 {
			ids[bi] = i // duplicate of the pool or an earlier batch member
			continue
		}
		ids[bi] = int32(len(ix.Pts))
		ix.Pts = append(ix.Pts, append([]float64(nil), r...))
		ix.OrigIDs = append(ix.OrigIDs, -1)
		if ix.fullPts != nil {
			ix.fullPts = append(ix.fullPts, append([]float64(nil), r...))
		}
		stats.Accepted++
	}
	return ids, errs, stats
}

// Rebuild is the second half of InsertBatch: it replaces the cells with a
// PBA⁺ build over the pool and returns the build's wall time in ns.
func (ix *Index) Rebuild() int64 {
	start := time.Now()
	// Without a verdict memo: a PBA⁺ build never hits its own (a key names
	// one cell's region, and a cell tests a pair once), and on ingest_mixed
	// storing the verdicts cost a sixth of the insert throughput.
	ix.build(PBAPlus, 0, nil)
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
