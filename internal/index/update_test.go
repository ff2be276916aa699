package index

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tlevelindex/baseline"
	"tlevelindex/datagen"
)

// TestInsertOptionMatchesRebuild: inserting options one at a time into a
// built index must converge to the same arrangements as rebuilding from
// scratch over the grown dataset.
func TestInsertOptionMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		n := 12 + rng.Intn(12)
		d := 2 + rng.Intn(2)
		tau := 2 + rng.Intn(2)
		data := randData(rng, n, d)
		extra := randData(rng, 4, d)

		ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: tau})
		for _, r := range extra {
			if _, err := ix.InsertOption(r); err != nil {
				t.Fatalf("trial %d: insert: %v", trial, err)
			}
		}
		if err := ix.Validate(true); err != nil {
			t.Fatalf("trial %d: post-insert validate: %v", trial, err)
		}
		full := buildOrFail(t, append(append([][]float64{}, data...), extra...),
			Config{Algorithm: PBAPlus, Tau: tau})
		for l := 1; l <= tau; l++ {
			got := levelSigsByCoords(ix, l)
			want := levelSigsByCoords(full, l)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d level %d:\n got %v\nwant %v", trial, l, got, want)
			}
		}
	}
}

// levelSigsByCoords keys cells by option coordinates (ids differ between
// incremental and rebuilt indexes).
func levelSigsByCoords(ix *Index, l int) []string {
	var sigs []string
	for _, id := range ix.Levels[l] {
		r := ix.ResultSet(id)
		var parts []string
		for _, v := range r {
			parts = append(parts, vecKey(ix.Pts[v]))
		}
		sortStrings(parts)
		sigs = append(sigs, join(parts)+"|"+vecKey(ix.Pts[ix.Cells[id].Opt]))
	}
	sortStrings(sigs)
	return sigs
}

func vecKey(v []float64) string {
	out := ""
	for _, x := range v {
		out += formatFloat(x) + ","
	}
	return out
}

func formatFloat(x float64) string {
	// Enough precision to distinguish distinct random floats.
	const digits = "0123456789abcdef"
	u := uint64(x * (1 << 52))
	buf := make([]byte, 0, 16)
	for i := 0; i < 13; i++ {
		buf = append(buf, digits[u&15])
		u >>= 4
	}
	return string(buf)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func join(s []string) string {
	out := ""
	for _, v := range s {
		out += v + ";"
	}
	return out
}

func TestInsertFilteredOption(t *testing.T) {
	ix := buildOrFail(t, hotels, Config{Algorithm: PBAPlus, Tau: 3})
	before := ix.NumCells()
	// An option dominated by everything cannot rank top-3.
	fid, err := ix.InsertOption([]float64{0.01, 0.01})
	if err != nil || fid != -1 {
		t.Fatalf("dominated insert: fid=%d err=%v", fid, err)
	}
	if ix.NumCells() != before {
		t.Error("filtered insert changed the index")
	}
	// An exact duplicate is a no-op returning the existing id.
	fid, err = ix.InsertOption(hotels[0])
	if err != nil || fid < 0 || ix.OrigIDs[fid] != 0 {
		t.Fatalf("duplicate insert: fid=%d err=%v", fid, err)
	}
	if ix.NumCells() != before {
		t.Error("duplicate insert changed the index")
	}
	if _, err := ix.InsertOption([]float64{0.5}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestInsertDominatingOption(t *testing.T) {
	ix := buildOrFail(t, hotels, Config{Algorithm: PBAPlus, Tau: 3})
	// A new market leader dominating every hotel: it must become the only
	// rank-1 cell.
	fid, err := ix.InsertOption([]float64{0.99, 0.99})
	if err != nil || fid < 0 {
		t.Fatalf("insert: %v (fid %d)", err, fid)
	}
	if err := ix.Validate(true); err != nil {
		t.Fatal(err)
	}
	if len(ix.Levels[1]) != 1 || ix.Cells[ix.Levels[1][0]].Opt != fid {
		t.Errorf("level 1 after dominating insert: %d cells", len(ix.Levels[1]))
	}
}

func TestExtendTau(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	data := randData(rng, 20, 3)
	ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 2})
	if err := ix.ExtendTau(4); err != nil {
		t.Fatal(err)
	}
	if ix.Tau != 4 || len(ix.Levels) != 5 {
		t.Fatalf("tau=%d levels=%d", ix.Tau, len(ix.Levels))
	}
	if err := ix.Validate(false); err != nil {
		t.Fatal(err)
	}
	full := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 4})
	for l := 1; l <= 4; l++ {
		got := levelSigsByCoords(ix, l)
		want := levelSigsByCoords(full, l)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("level %d after ExtendTau differs", l)
		}
	}
	// Extending to a smaller or equal tau is a no-op.
	if err := ix.ExtendTau(3); err != nil {
		t.Fatal(err)
	}
	if ix.Tau != 4 {
		t.Error("ExtendTau shrank the index")
	}
}

// TestExtendTauEqualsBuild: ExtendTau is a rebuild. The deepened index is
// byte for byte the PBA⁺ build over its grown pool (with the dataset ids
// and the input size carried over), holds the cells of an index built at
// the new τ in the first place, answers top-k like the brute force, and
// every one of its cells has an interior.
func TestExtendTauEqualsBuild(t *testing.T) {
	for _, tc := range []struct{ n, d, from, to int }{
		{n: 8000, d: 2, from: 4, to: 6},
		{n: 2000, d: 3, from: 3, to: 5},
	} {
		name := fmt.Sprintf("IND n=%d d=%d τ %d→%d", tc.n, tc.d, tc.from, tc.to)
		data := datagen.Generate(datagen.IND, tc.n, tc.d, 1)
		ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: tc.from})
		if err := ix.ExtendTau(tc.to); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ix.Tau != tc.to {
			t.Fatalf("%s: τ = %d after ExtendTau", name, ix.Tau)
		}

		pool := buildOrFail(t, ix.Pts, Config{Algorithm: PBAPlus, Tau: tc.to, SkipFilter: true})
		pool.OrigIDs = append([]int(nil), ix.OrigIDs...)
		pool.Stats.InputOptions = ix.Stats.InputOptions
		if !bytes.Equal(serializeOrFail(t, ix), serializeOrFail(t, pool)) {
			t.Fatalf("%s: the extended index differs from the PBA⁺ build over its pool", name)
		}

		fresh := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: tc.to})
		if !slices.Equal(ix.Stats.CellsPerLevel, fresh.Stats.CellsPerLevel) {
			t.Fatalf("%s: cells per level %v, a build at τ=%d has %v", name, ix.Stats.CellsPerLevel, tc.to, fresh.Stats.CellsPerLevel)
		}
		for l := 1; l <= tc.to; l++ {
			if !slices.Equal(levelSigsByCoords(ix, l), levelSigsByCoords(fresh, l)) {
				t.Fatalf("%s: level %d differs from a build at τ=%d", name, l, tc.to)
			}
		}

		rng := rand.New(rand.NewSource(int64(tc.d)))
		for q := 0; q < 200; q++ {
			x := randReduced(rng, tc.d-1)
			k := 1 + rng.Intn(tc.to)
			got, _ := ix.TopK(x, k)
			if g, want := datasetIDs(ix, got), baseline.BruteTopK(data, x, k); !slices.Equal(g, want) {
				t.Fatalf("%s: top-%d at %v = %v, brute force %v", name, k, x, g, want)
			}
		}
		if err := ix.Validate(true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestExtendTauClampsLikeBuild: past the number of options ExtendTau clamps
// τ as Build does. On three options ExtendTau(5) once left τ = 5 with empty
// levels 4 and 5 and answered a top-5 query, where Build(τ=5) clamps τ to 3
// and refuses it.
func TestExtendTauClampsLikeBuild(t *testing.T) {
	data := [][]float64{{0.9, 0.1}, {0.1, 0.9}, {0.5, 0.55}}
	ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 2})
	if err := ix.ExtendTau(5); err != nil {
		t.Fatal(err)
	}
	built := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 5})
	if built.Tau != 3 || ix.Tau != built.Tau || len(ix.Levels) != built.Tau+1 {
		t.Fatalf("ExtendTau(5): τ = %d with %d levels; Build(τ=5) clamps to τ = %d", ix.Tau, len(ix.Levels), built.Tau)
	}
	if !bytes.Equal(serializeOrFail(t, ix), serializeOrFail(t, built)) {
		t.Fatal("ExtendTau(5) differs from Build(τ=5)")
	}
	if _, _, _, err := ix.TopKCtx(context.Background(), []float64{0.3}, 5); err != ErrBeyondTau {
		t.Fatalf("top-5 over 3 options after ExtendTau(5): err %v, want ErrBeyondTau", err)
	}
	// A second ExtendTau past the clamp finds nothing to add.
	before := serializeOrFail(t, ix)
	if err := ix.ExtendTau(6); err != nil || !bytes.Equal(before, serializeOrFail(t, ix)) {
		t.Fatalf("ExtendTau(6) on a clamped index: err %v, or the index changed", err)
	}
}

func TestLevelOptions(t *testing.T) {
	ix := buildOrFail(t, hotels, Config{Algorithm: PBAPlus, Tau: 3})
	toOrig := func(fids []int32) []int {
		var out []int
		for _, f := range fids {
			out = append(out, ix.OrigIDs[f])
		}
		return out
	}
	// Level 1: VibesInn, Artezen. Level 2 (per Figure 2): r1, r2, r3, r4.
	if got := toOrig(ix.LevelOptions(1)); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("level 1 options = %v", got)
	}
	if got := toOrig(ix.LevelOptions(2)); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("level 2 options = %v", got)
	}
	if ix.LevelOptions(0) != nil || ix.LevelOptions(4) != nil {
		t.Error("out-of-range levels should return nil")
	}
}

// TestExtendTauAfterInsertRecruitsNoDuplicate: an option an insert admitted
// carries no dataset id, and ExtendTau must not recruit its coordinates a
// second time from the full dataset. Keyed on dataset ids, the pool once
// held {0.6, 0.6} at ids 4 and 5 after this schedule: four of five options
// at τ=1, the insert at id 4, then ExtendTau recruiting it again beside the
// fifth option.
func TestExtendTauAfterInsertRecruitsNoDuplicate(t *testing.T) {
	data := [][]float64{{0.9, 0.1}, {0.1, 0.9}, {0.7, 0.4}, {0.4, 0.7}, {0.2, 0.2}}
	ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 1})
	if id, err := ix.InsertOption([]float64{0.6, 0.6}); err != nil || id != 4 {
		t.Fatalf("InsertOption = %d, %v; want id 4", id, err)
	}
	if err := ix.ExtendTau(3); err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]float64]int)
	for id, p := range ix.Pts {
		key := [2]float64{p[0], p[1]}
		if prev, dup := seen[key]; dup {
			t.Fatalf("pool holds %v at ids %d and %d", p, prev, id)
		}
		seen[key] = id
	}
	if err := ix.Validate(true); err != nil {
		t.Fatal(err)
	}
}
