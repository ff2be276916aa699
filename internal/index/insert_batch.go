package index

import (
	"errors"
	"time"

	"tlevelindex/internal/skyline"
)

// BatchStats reports what one InsertBatch call actually did — the numbers
// the serve layer attaches to its ingest spans and the bench harness
// reports. Timings cover the amortized phases only: ThawNS is the one
// CSR→staging copy the whole batch shares, FinalizeNS the single
// compact/fillCellStats tail.
type BatchStats struct {
	// Accepted counts options that survived the τ-skyband and duplicate
	// prefilters and mutated the index.
	Accepted int
	// ThawNS is the wall time of the single thaw() (0 when every option was
	// filtered and the index was never touched).
	ThawNS int64
	// FinalizeNS is the wall time of the shared compact/stats tail.
	FinalizeNS int64
	// RegionsReused counts the cell regions the batch's accepted records
	// asked for (traversal and edge fix-up) that the insert cache served by
	// appending to constraints it held; RegionsRebuilt those assembled from
	// nothing — every one of a cold batch's first record.
	RegionsReused, RegionsRebuilt int
	// PairLPs counts the parent-intersection LPs the edge fix-up ran,
	// PairSkips the pairs a cached certificate settled without one.
	PairLPs, PairSkips int
	// CacheBytes is the estimated footprint of the insert cache the index
	// keeps for the next batch; 0 when the batch accepted nothing or left
	// the cache over budget, so that it was dropped.
	CacheBytes int64
}

// InsertBatch adds newly arrived options to a built index, in order: the
// update path of §6.2 ("For a new arriving option r, IBA inserts it into
// the τ-LevelIndex accordingly"). The insertion-based machinery classifies
// each option against the existing cells, splits and shifts where needed,
// merges duplicates, and re-derives exact edges. An option joins the
// filtered set only when it can rank within τ — it survives the τ-skyband
// test against the pool as grown by the records before it — and is not an
// exact duplicate of a pool member; otherwise it changes nothing.
//
// The returned ids and the final structure are exactly those of inserting
// the options in N batches of one, but the O(total-cells) maintenance is
// amortized: one thaw() materializes the staging adjacency for the whole
// batch, the cells' regions and parent certificates and the insertion
// scratch come from the index's insertCache — across records and, while it
// stays within its budget, across batches — and the compact (CSR re-freeze)
// plus fillCellStats tail runs once. fixupEdges still runs after every
// record: the next record's traversal classifies against the adjacency it
// sees, and only the exact Definition-4 edges keep the batch result
// byte-identical to the one-at-a-time path (structural creation-time edges
// steer later insertions down different traversal orders, permuting cell
// ids).
//
// ids[i] is the filtered id of rs[i], or -1 when it was filtered out or
// errs[i] is non-nil. A per-item dimensionality mismatch rejects only that
// item. A batch whose every option is filtered leaves the index untouched
// (no thaw, no re-freeze).
func (ix *Index) InsertBatch(rs [][]float64) ([]int32, []error, BatchStats) {
	ids := make([]int32, len(rs))
	errs := make([]error, len(rs))
	var stats BatchStats
	for i := range ids {
		ids[i] = -1
	}
	// Set on the first accepted record: a fully filtered batch must not thaw
	// (and re-freeze) the index at all.
	var cache *insertCache
	for bi, r := range rs {
		if len(r) != ix.Dim {
			errs[bi] = errors.New("index: option dimensionality mismatch")
			continue
		}
		// τ-skyband check against the pool as of this record: if τ options of
		// it (earlier batch members included) dominate r, it can never rank
		// top-τ.
		dominators := 0
		filtered := false
		for _, p := range ix.Pts {
			if skyline.Dominates(p, r) {
				dominators++
				if dominators >= ix.Tau {
					filtered = true
					break
				}
			}
		}
		if filtered {
			continue
		}
		dup := false
		for i, p := range ix.Pts {
			if equalVec(p, r) {
				ids[bi] = int32(i) // duplicate of the pool or an earlier batch member
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if cache == nil {
			// The insertion machinery does slice surgery on the staging
			// adjacency; materialize it from the flat form first. compact()
			// re-freezes at the end.
			thawStart := time.Now()
			ix.thaw()
			stats.ThawNS = time.Since(thawStart).Nanoseconds()
			// Regions and parent certificates come from the cache the last
			// batch left behind, when it left one (see insertCache).
			if ix.icache == nil {
				ix.icache = newInsertCache()
			}
			cache = ix.icache
			cache.beginBatch(ix)
		}
		rj := int32(len(ix.Pts))
		ix.Pts = append(ix.Pts, append([]float64(nil), r...))
		ix.OrigIDs = append(ix.OrigIDs, -1)
		if ix.fullPts != nil {
			ix.fullPts = append(ix.fullPts, append([]float64(nil), r...))
		}
		cache.verdicts.Reset()
		cache.st.begin(rj)
		cache.st.insert(ix.Root())
		cache.st.mergeCreated()
		// Re-derive exact edges before the next record's traversal: the next
		// insertion classifies against this adjacency, and matching the
		// one-at-a-time path record for record is what keeps a batch-built
		// index byte-identical to it. The expensive compact (CSR re-freeze)
		// still runs only once, below.
		ix.fixupEdges(cache)
		ids[bi] = rj
		stats.Accepted++
	}
	if stats.Accepted > 0 {
		finalizeStart := time.Now()
		ix.compact() // renumbers the cells, and the cache's entries with them
		ix.fillCellStats()
		stats.RegionsReused, stats.RegionsRebuilt = cache.regionsReused, cache.regionsRebuilt
		stats.PairLPs, stats.PairSkips = cache.pairLPs, cache.pairSkips
		if held := cache.bytes(); held <= insertCacheBudget {
			stats.CacheBytes = held
		} else {
			ix.dropInsertCache()
		}
		stats.FinalizeNS = time.Since(finalizeStart).Nanoseconds()
	}
	return ids, errs, stats
}
