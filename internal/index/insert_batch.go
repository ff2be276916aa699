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
// batch, the IBA scratch (inserted list, visited/created sets) is reused
// across records, and the compact (CSR re-freeze) plus fillCellStats tail
// runs once. fixupEdges still runs after every record: the next record's
// traversal classifies against the adjacency it sees, and only the exact
// Definition-4 edges keep the batch result byte-identical to the
// one-at-a-time path (structural creation-time edges steer later insertions
// down different traversal orders, permuting cell ids).
//
// ids[i] is the filtered id of rs[i], or -1 when it was filtered out or
// errs[i] is non-nil. A batch against an extended index rejects every item
// with ErrExtended; a per-item dimensionality mismatch rejects only that
// item. A batch whose every option is filtered leaves the index untouched
// (no thaw, no re-freeze).
func (ix *Index) InsertBatch(rs [][]float64) ([]int32, []error, BatchStats) {
	ids := make([]int32, len(rs))
	errs := make([]error, len(rs))
	var stats BatchStats
	for i := range ids {
		ids[i] = -1
	}
	if ix.ext != nil {
		for i := range errs {
			errs[i] = ErrExtended
		}
		return ids, errs, stats
	}
	// Lazily initialized on the first accepted record: a fully filtered
	// batch must not thaw (and re-freeze) the index at all.
	var (
		thawed   bool
		inserted []int32
		visited  = make(map[int32]bool)
		created  = make(map[int32]bool)
		// cache carries regions and parent certificates from record to
		// record (see insertCache); it is valid precisely until compact()
		// renumbers cells, i.e. for the lifetime of this batch.
		cache = newInsertCache()
	)
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
		if !thawed {
			// The insertion machinery does slice surgery on the staging
			// adjacency; materialize it from the flat form first. compact()
			// re-freezes at the end.
			thawStart := time.Now()
			ix.thaw()
			stats.ThawNS = time.Since(thawStart).Nanoseconds()
			inserted = make([]int32, 0, len(ix.Pts)+len(rs)-bi)
			for i := range ix.Pts {
				inserted = append(inserted, int32(i))
			}
			thawed = true
		}
		rj := int32(len(ix.Pts))
		ix.Pts = append(ix.Pts, append([]float64(nil), r...))
		ix.OrigIDs = append(ix.OrigIDs, -1)
		if ix.fullPts != nil {
			ix.fullPts = append(ix.fullPts, append([]float64(nil), r...))
		}
		clear(visited)
		clear(created)
		st := &ibaState{ix: ix, rj: rj, inserted: inserted,
			visited: visited, created: created, cache: cache}
		st.insert(ix.Root())
		inserted = append(inserted, rj)
		ix.mergeAllLevels()
		// Re-derive exact edges before the next record's traversal: the next
		// insertion classifies against this adjacency, and matching the
		// one-at-a-time path record for record is what keeps a batch-built
		// index byte-identical to it. The expensive compact (CSR re-freeze)
		// still runs only once, below.
		ix.fixupEdgesWith(cache)
		ids[bi] = rj
		stats.Accepted++
	}
	if stats.Accepted > 0 {
		finalizeStart := time.Now()
		ix.compact()
		ix.fillCellStats()
		stats.FinalizeNS = time.Since(finalizeStart).Nanoseconds()
	}
	return ids, errs, stats
}
