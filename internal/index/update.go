package index

import "errors"

// ErrExtended reports that an insert was attempted after on-demand level
// extension; the extension's lazy levels are not maintained incrementally,
// so updates are rejected until the extension is promoted via ExtendTau.
var ErrExtended = errors.New("index: cannot insert after on-demand extension")

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
// smaller τ first, then expand it on demand" usage of §7.3: on-demand
// levels are materialized and promoted into the core structure.
func (ix *Index) ExtendTau(newTau int) error {
	if newTau <= ix.Tau {
		return nil
	}
	ix.ensureLevels(newTau)
	for l := ix.Tau + 1; l <= newTau; l++ {
		ids := ix.ext.levels[l]
		ix.Levels = append(ix.Levels, append([]int32(nil), ids...))
	}
	ix.Tau = newTau
	ix.ext = nil
	ix.fillCellStats()
	return nil
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
