package index

import (
	"errors"

	"tlevelindex/internal/skyline"
)

var (
	// ErrBeyondTau reports a query deeper than the index: its k exceeds τ.
	// Queries only read; ExtendTau is the way to deepen the index.
	ErrBeyondTau = errors.New("tlevelindex: k exceeds the index depth τ; deepen it with ExtendTau")

	// ErrNeedsFullData reports an ExtendTau on an index that holds no
	// reference to its full dataset (it was loaded, or built without it), so
	// the options that rank below τ everywhere are gone and the deeper
	// levels cannot be built.
	ErrNeedsFullData = errors.New("tlevelindex: extending τ needs the full dataset, which the index does not hold")
)

// InsertOption adds one newly arrived option to a built index: InsertBatch
// of that option alone. Returns the option's filtered id, or -1 when it was
// filtered out.
func (ix *Index) InsertOption(r []float64) (int32, error) {
	ids, errs, _ := ix.InsertBatch([][]float64{r})
	return ids[0], errs[0]
}

func equalVec(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ExtendTau permanently deepens the index to newTau levels, the "set a
// smaller τ first, then expand it on demand" usage of §7.3. It is the only
// way to deepen an index: a query with k > τ is refused with ErrBeyondTau.
// An index without its full dataset returns ErrNeedsFullData and is left
// unchanged. A newTau ≤ τ is a no-op.
//
// Deepening is a rebuild, the one an accepted InsertBatch runs: the pool
// grows to the newTau-skyband of the full dataset (the ids already handed
// out never move; recruited options take the next ones), τ becomes newTau
// clamped to the pool size as Build clamps it, and the cells are replaced
// by a PBA⁺ build over the pool. The index is then the one Build(pool,
// SkipFilter) makes at that τ, whatever mix of inserts and extensions led
// to it.
func (ix *Index) ExtendTau(newTau int) error {
	if newTau <= ix.Tau {
		return nil
	}
	if ix.fullPts == nil {
		return ErrNeedsFullData
	}
	ix.ensurePool(newTau)
	// A clamped τ that did not grow means the pool did not either.
	if tau := min(newTau, len(ix.Pts)); tau > ix.Tau {
		ix.Tau = tau
		ix.Rebuild()
	}
	return nil
}

// ensurePool grows the filtered option set to the k-skyband of the full
// dataset so that every option that can rank top-k is available. Pool
// membership is by coordinates, as AdmitBatch decides it: an option an
// insert admitted carries no dataset id (OrigIDs -1) and must not be
// recruited a second time.
func (ix *Index) ensurePool(k int) {
	uniq, uniqIDs := dedupeOptions(ix.fullPts)
	for _, fi := range skyline.Skyband(uniq, k) {
		if ix.poolIndex(uniq[fi]) < 0 {
			ix.Pts = append(ix.Pts, uniq[fi])
			ix.OrigIDs = append(ix.OrigIDs, uniqIDs[fi])
		}
	}
}

// LevelOptions returns the distinct options that hold rank ℓ somewhere in
// preference space — the level-ℓ arrangement's option set, which §4 notes
// is tighter than the corresponding skyline/onion-layer answer.
func (ix *Index) LevelOptions(l int) []int32 {
	if l < 1 || l > ix.Tau {
		return nil
	}
	set := make(map[int32]bool)
	for _, id := range ix.Levels[l] {
		set[ix.Cells[id].Opt] = true
	}
	return sortedKeys(set)
}
