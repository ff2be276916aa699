package index

import (
	"bytes"
	"cmp"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// refKSPRWalk is the kSPR of the paper (and of this package before the
// option→cells column): a depth-first walk from the entry cell that stops at
// level k or at a cell holding the focal option, whichever comes first. It
// returns the cells it reports in walk order and how many cells it visited.
func (ix *Index) refKSPRWalk(k int, focal int32) (cells []int32, visited int) {
	seen := make(map[int32]bool)
	stack := []int32{ix.Root()}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		visited++
		c := &ix.Cells[id]
		if c.Opt == focal {
			cells = append(cells, id)
			continue
		}
		if int(c.Level) >= k {
			continue
		}
		children := ix.childrenOf(id)
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}
	return cells, visited
}

// refMaxRank is the level sweep MaxRank replaced: the first level in 1..τ
// with a cell holding the focal option.
func (ix *Index) refMaxRank(focal int32) int {
	for l := 1; l <= ix.Tau; l++ {
		for _, id := range ix.Levels[l] {
			if ix.Cells[id].Opt == focal {
				return l
			}
		}
	}
	return -1
}

// checkOptCells holds KSPR and MaxRank to the walk and the sweep for every
// option and every k ≤ τ, and KSPR's order to ascending (level,
// id). It returns the cells the walks visited and the cells they reported.
func checkOptCells(t *testing.T, ix *Index, stage string) (visited, reported int) {
	t.Helper()
	byLevelID := func(a, b int32) int {
		return cmp.Or(cmp.Compare(ix.Cells[a].Level, ix.Cells[b].Level), cmp.Compare(a, b))
	}
	for focal := int32(0); int(focal) < len(ix.Pts); focal++ {
		for k := 0; k <= ix.Tau; k++ {
			want, v := ix.refKSPRWalk(k, focal)
			visited, reported = visited+v, reported+len(want)
			slices.SortFunc(want, byLevelID)
			got := ix.KSPR(k, focal)
			if !slices.Equal(got.Cells, want) || got.Stats != (QueryStats{VisitedCells: len(want)}) {
				t.Fatalf("%s: KSPR(%d, %d) = %v %+v, walk (sorted) %v", stage, k, focal, got.Cells, got.Stats, want)
			}
		}
		if got, st := ix.MaxRank(focal); got != ix.refMaxRank(focal) || st.VisitedCells != min(1, max(got, 0)) {
			t.Fatalf("%s: MaxRank(%d) = %d %+v, sweep %d", stage, focal, got, st, ix.refMaxRank(focal))
		}
	}
	for _, bad := range []int32{NoOption, int32(len(ix.Pts))} {
		if got := ix.KSPR(ix.Tau, bad); len(got.Cells) != 0 {
			t.Fatalf("%s: KSPR of option %d = %v, want none", stage, bad, got.Cells)
		}
		if got, _ := ix.MaxRank(bad); got != -1 {
			t.Fatalf("%s: MaxRank of option %d = %d, want -1", stage, bad, got)
		}
	}
	return visited, reported
}

// TestOptCellsMatchWalk: the option→cells column gives the walk's kSPR
// answer and the sweep's MaxRank on every builder at d = 2..4, and keeps
// giving them through every step that rebuilds it: InsertBatch, Read,
// OpenFile and ExtendTau.
func TestOptCellsMatchWalk(t *testing.T) {
	var visited, reported int
	check := func(ix *Index, stage string) {
		v, r := checkOptCells(t, ix, stage)
		visited, reported = visited+v, reported+r
	}
	rng := rand.New(rand.NewSource(3501))
	for _, alg := range []Algorithm{PBAPlus, PBA, IBA, BSL} {
		for d := 2; d <= 4; d++ {
			n, tau := 40, 4
			if d == 4 {
				n, tau = 16, 3 // BSL and IBA at d=4 are the slow corner
			}
			data := randData(rng, n, d)
			ix := buildOrFail(t, data, Config{Algorithm: alg, Tau: tau})
			stage := alg.String() + " d=" + string(rune('0'+d))
			check(ix, stage+" built")

			batch := make([][]float64, 3)
			for i := range batch {
				batch[i] = make([]float64, d)
				for j := range batch[i] {
					batch[i][j] = 0.5 + 0.5*rng.Float64()
				}
			}
			if _, errs, _ := insertBatch(ix, batch); slices.ContainsFunc(errs, func(e error) bool { return e != nil }) {
				t.Fatalf("%s: insert: %v", stage, errs)
			}
			check(ix, stage+" after InsertBatch")

			var snap bytes.Buffer
			if _, err := ix.WriteTo(&snap); err != nil {
				t.Fatal(err)
			}
			heap, err := Read(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			check(heap, stage+" after Read")
			path := filepath.Join(t.TempDir(), "snap.tlx")
			if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			mapped, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			check(mapped, stage+" after OpenFile")
			if err := mapped.CloseBacking(); err != nil {
				t.Fatal(err)
			}

			ext := buildOrFail(t, data, Config{Algorithm: alg, Tau: tau})
			if err := ext.ExtendTau(tau + 1); err != nil {
				t.Fatal(err)
			}
			check(ext, stage+" extended")
		}
	}
	if reported == 0 || visited < 2*reported {
		t.Fatalf("walks visited %d cells to report %d: the draws do not exercise the walk", visited, reported)
	}
	t.Logf("walks visited %d cells to report %d", visited, reported)
}
