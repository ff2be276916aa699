package index

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tlevelindex/datagen"
	"tlevelindex/internal/geom"
)

// hotels is the paper's running example (Figure 2a).
var hotels = [][]float64{
	{0.62, 0.76}, // r1 VibesInn
	{0.90, 0.48}, // r2 Artezen
	{0.73, 0.33}, // r3 citizenM
	{0.26, 0.64}, // r4 Yotel
	{0.30, 0.24}, // r5 Royalton
}

var allAlgorithms = []Algorithm{PBAPlus, PBA, IBA, IBAR, BSL}

// cellSignature is a printable (R set, opt) pair for arrangement comparison.
func cellSignature(ix *Index, id int32) string {
	r := ix.ResultSet(id)
	orig := make([]int, len(r))
	for i, v := range r {
		orig[i] = ix.OrigIDs[v]
	}
	sort.Ints(orig)
	return fmt.Sprintf("%v|%d", orig, ix.OrigIDs[ix.Cells[id].Opt])
}

// levelSignatures returns the sorted cell signatures of a level.
func levelSignatures(ix *Index, l int) []string {
	var sigs []string
	for _, id := range ix.Levels[l] {
		sigs = append(sigs, cellSignature(ix, id))
	}
	sort.Strings(sigs)
	return sigs
}

func buildOrFail(t *testing.T, data [][]float64, cfg Config) *Index {
	t.Helper()
	ix, err := Build(data, cfg)
	if err != nil {
		t.Fatalf("Build(%v): %v", cfg.Algorithm, err)
	}
	if err := ix.Validate(false); err != nil {
		t.Fatalf("Validate(%v): %v", cfg.Algorithm, err)
	}
	if n, err := ix.WriteTo(io.Discard); err != nil || n != ix.SizeBytes() {
		t.Fatalf("WriteTo(%v) wrote %d bytes (%v), SizeBytes %d", cfg.Algorithm, n, err, ix.SizeBytes())
	}
	return ix
}

func TestHotelExampleArrangements(t *testing.T) {
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			ix := buildOrFail(t, hotels, Config{Algorithm: alg, Tau: 3})
			// Figure 2(c): level 1 has cells for r1, r2; level 2 for
			// {r1,r4|r4}, {r1,r2|r2}, {r1,r2|r1}, {r2,r3|r3}; level 3 has
			// four cells, with the {r1,r2,r3|r3} cell merged (two parents).
			want1 := []string{"[0]|0", "[1]|1"}
			want2 := []string{"[0 1]|0", "[0 1]|1", "[0 3]|3", "[1 2]|2"}
			want3 := []string{"[0 1 2]|2", "[0 1 2]|0", "[0 1 3]|1", "[0 1 3]|3"}
			sort.Strings(want3)
			if got := levelSignatures(ix, 1); !equalStrings(got, want1) {
				t.Errorf("level 1 = %v, want %v", got, want1)
			}
			if got := levelSignatures(ix, 2); !equalStrings(got, want2) {
				t.Errorf("level 2 = %v, want %v", got, want2)
			}
			if got := levelSignatures(ix, 3); !equalStrings(got, want3) {
				t.Errorf("level 3 = %v, want %v", got, want3)
			}
			// The merged C9 cell ({r1,r2,r3} with opt r3) has two parents.
			for _, id := range ix.Levels[3] {
				if cellSignature(ix, id) == "[0 1 2]|2" {
					if len(ix.parentsOf(id)) != 2 {
						t.Errorf("merged cell has %d parents, want 2", len(ix.parentsOf(id)))
					}
				}
			}
			// Royalton (r5) must have been filtered: it cannot rank top-3.
			for _, id := range ix.Levels[1] {
				_ = id
			}
			for _, o := range ix.OrigIDs {
				if o == 4 {
					t.Errorf("Royalton survived the skyband filter")
				}
			}
		})
	}
}

func TestHotelCellRegions(t *testing.T) {
	ix := buildOrFail(t, hotels, Config{Algorithm: PBAPlus, Tau: 3})
	// The paper gives explicit intervals: C1=[0,0.5], C4=[0.2,0.5],
	// C9=[0.397,0.796] (approx).
	checks := map[string][2]float64{
		"[0]|0":     {0, 0.5},
		"[1]|1":     {0.5, 1},
		"[0 1]|1":   {0.2, 0.5},
		"[0 1]|0":   {0.5, 0.7963},
		"[0 3]|3":   {0, 0.2},
		"[1 2]|2":   {0.7963, 1},
		"[0 1 2]|2": {31.0 / 78.0, 0.7963},
	}
	for l := 1; l <= 3; l++ {
		for _, id := range ix.Levels[l] {
			want, ok := checks[cellSignature(ix, id)]
			if !ok {
				continue
			}
			reg := ix.Region(id)
			// Determine the interval via LP: max/min of x over the region.
			lo, hi := regionInterval(t, reg)
			if math.Abs(lo-want[0]) > 1e-3 || math.Abs(hi-want[1]) > 1e-3 {
				t.Errorf("cell %s: interval [%.4f, %.4f], want [%.4f, %.4f]",
					cellSignature(ix, id), lo, hi, want[0], want[1])
			}
		}
	}
}

func regionInterval(t *testing.T, reg *geom.Region) (lo, hi float64) {
	t.Helper()
	if reg.Dim != 1 {
		t.Fatal("regionInterval wants 1-dim regions")
	}
	// Project extreme points.
	p0, d0 := reg.Project([]float64{-10})
	p1, d1 := reg.Project([]float64{10})
	_ = d0
	_ = d1
	return p0[0], p1[0]
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randData(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// TestBuilderEquivalence: every construction algorithm must produce the
// same level arrangements (same (R, opt) cell sets) and the same edges.
func TestBuilderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(18)
		d := 2 + rng.Intn(2) // d in {2,3}
		tau := 2 + rng.Intn(3)
		data := randData(rng, n, d)
		ref := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: tau})
		refEdges := edgeSignatures(ref)
		for _, alg := range []Algorithm{PBA, IBA, IBAR, BSL} {
			ix := buildOrFail(t, data, Config{Algorithm: alg, Tau: tau, Seed: int64(trial)})
			for l := 1; l <= ref.Tau; l++ {
				got, want := levelSignatures(ix, l), levelSignatures(ref, l)
				if !equalStrings(got, want) {
					t.Fatalf("trial %d (n=%d d=%d tau=%d) %v level %d:\n got %v\nwant %v",
						trial, n, d, tau, alg, l, got, want)
				}
			}
			if gotE := edgeSignatures(ix); !equalStrings(gotE, refEdges) {
				t.Fatalf("trial %d %v edges differ:\n got %v\nwant %v", trial, alg, gotE, refEdges)
			}
		}
	}
}

func edgeSignatures(ix *Index) []string {
	var out []string
	for i := range ix.Cells {
		c := &ix.Cells[i]
		if c.Level <= 0 {
			continue
		}
		cs := cellSignature(ix, c.ID)
		for _, p := range ix.parentsOf(c.ID) {
			if ix.Cells[p].Opt == NoOption {
				out = append(out, "root->"+cs)
			} else {
				out = append(out, cellSignature(ix, p)+"->"+cs)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestWalkMatchesBruteForce: for random weights, descending the index must
// reproduce the brute-force top-τ ranking.
func TestWalkMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 8; trial++ {
		n := 12 + rng.Intn(30)
		d := 2 + rng.Intn(3) // up to 4 attrs
		tau := 2 + rng.Intn(3)
		data := randData(rng, n, d)
		ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: tau})
		for probe := 0; probe < 40; probe++ {
			x := randReduced(rng, d-1)
			got, _ := ix.TopK(x, tau)
			want := bruteTopK(data, x, tau)
			for i := range got {
				if ix.OrigIDs[got[i]] != want[i] {
					// Allow score ties.
					gs := geom.Score(ix.Pts[got[i]], x)
					ws := geom.Score(data[want[i]], x)
					if math.Abs(gs-ws) > 1e-9 {
						t.Fatalf("trial %d probe %d rank %d: got opt %d (score %.6f), want %d (%.6f)",
							trial, probe, i+1, ix.OrigIDs[got[i]], gs, want[i], ws)
					}
				}
			}
		}
	}
}

func randReduced(rng *rand.Rand, dim int) []float64 {
	e := make([]float64, dim+1)
	s := 0.0
	for i := range e {
		e[i] = -math.Log(math.Max(rng.Float64(), 1e-15))
		s += e[i]
	}
	x := make([]float64, dim)
	for i := range x {
		x[i] = e[i] / s
	}
	return x
}

// bruteTopK ranks the raw dataset at reduced weight x.
func bruteTopK(data [][]float64, x []float64, k int) []int {
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return geom.Score(data[idx[a]], x) > geom.Score(data[idx[b]], x)
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// TestCellRegionsAreCorrect: sampled interior points of every cell must
// rank the cell's option exactly at the cell's level with the cell's R.
func TestCellRegionsAreCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 6; trial++ {
		n := 10 + rng.Intn(20)
		d := 2 + rng.Intn(2)
		tau := 2 + rng.Intn(2)
		data := randData(rng, n, d)
		ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: tau})
		for l := 1; l <= ix.Tau; l++ {
			for _, id := range ix.Levels[l] {
				reg := ix.Region(id)
				pts := reg.RandomInteriorPoints(8, rng.Float64)
				if pts == nil {
					t.Fatalf("cell %d at level %d has empty region", id, l)
				}
				r := ix.ResultSet(id)
				for _, x := range pts {
					want := bruteTopK(data, x, l)
					// Set equality of R (mapped to original ids) vs want,
					// and the level-ℓ option matches.
					gotSet := map[int]bool{}
					for _, v := range r {
						gotSet[ix.OrigIDs[v]] = true
					}
					for _, wv := range want {
						if !gotSet[wv] {
							t.Fatalf("cell %d: sampled point top-%d contains %d not in R", id, l, wv)
						}
					}
					if ix.OrigIDs[ix.Cells[id].Opt] != want[l-1] {
						gs := geom.Score(ix.Pts[ix.Cells[id].Opt], x)
						ws := geom.Score(data[want[l-1]], x)
						if math.Abs(gs-ws) > 1e-9 {
							t.Fatalf("cell %d: rank-%d option %d, brute force %d", id, l,
								ix.OrigIDs[ix.Cells[id].Opt], want[l-1])
						}
					}
				}
			}
		}
	}
}

// TestLevelCoverage: every sampled weight must be covered by some cell at
// every level (Definition 3: each level arrangement covers the simplex).
func TestLevelCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	data := randData(rng, 25, 3)
	ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 3})
	for probe := 0; probe < 60; probe++ {
		x := randReduced(rng, 2)
		for l := 1; l <= ix.Tau; l++ {
			covered := false
			for _, id := range ix.Levels[l] {
				if ix.Region(id).ContainsPoint(x, 1e-7) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("weight %v not covered at level %d", x, l)
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Config{Tau: 2}); err == nil {
		t.Error("empty dataset should fail")
	}
	if _, err := Build([][]float64{{1}}, Config{Tau: 2}); err == nil {
		t.Error("1-dim options should fail")
	}
	if _, err := Build([][]float64{{1, 2}, {3}}, Config{Tau: 2}); err == nil {
		t.Error("ragged dataset should fail")
	}
	if _, err := Build(hotels, Config{Tau: 0}); err == nil {
		t.Error("tau=0 should fail")
	}
}

func TestBuildWithDuplicates(t *testing.T) {
	data := append(append([][]float64{}, hotels...), hotels[0], hotels[1])
	ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 3})
	if ix.Stats.FilteredOptions > 4 {
		t.Errorf("duplicates not removed: %d filtered options", ix.Stats.FilteredOptions)
	}
}

func TestBuildTauLargerThanData(t *testing.T) {
	for _, alg := range allAlgorithms {
		ix := buildOrFail(t, hotels, Config{Algorithm: alg, Tau: 10})
		if ix.Tau != 5 {
			t.Errorf("%v: tau should clamp to 5, got %d", alg, ix.Tau)
		}
		// Every option ranks somewhere; the deepest level should still have
		// at least one cell per live option arrangement.
		if len(ix.Levels[ix.Tau]) == 0 {
			t.Errorf("%v: deepest level empty", alg)
		}
	}
}

func TestBuildTwoOptions(t *testing.T) {
	data := [][]float64{{0.9, 0.1}, {0.1, 0.9}}
	for _, alg := range allAlgorithms {
		ix := buildOrFail(t, data, Config{Algorithm: alg, Tau: 2})
		if got := len(ix.Levels[1]); got != 2 {
			t.Errorf("%v: level 1 has %d cells, want 2", alg, got)
		}
		if got := len(ix.Levels[2]); got != 2 {
			t.Errorf("%v: level 2 has %d cells, want 2", alg, got)
		}
	}
}

func TestBuildTotallyDominated(t *testing.T) {
	// One option dominates everything: level 1 must be a single cell.
	data := [][]float64{{0.9, 0.9}, {0.5, 0.4}, {0.3, 0.2}, {0.4, 0.35}}
	for _, alg := range allAlgorithms {
		ix := buildOrFail(t, data, Config{Algorithm: alg, Tau: 2})
		if got := len(ix.Levels[1]); got != 1 {
			t.Errorf("%v: level 1 has %d cells, want 1", alg, got)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	data := randData(rng, 40, 3)
	ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 4})
	st := ix.Stats
	if st.Algorithm != "PBA+" || st.InputOptions != 40 {
		t.Errorf("stats header wrong: %+v", st)
	}
	if len(st.CellsPerLevel) != 4 || st.CellsPerLevel[0] == 0 {
		t.Errorf("cells per level: %v", st.CellsPerLevel)
	}
	if len(st.PostFilterCandidates) != 4 || st.PostFilterCandidates[0] <= 0 {
		t.Errorf("post-filter candidates: %v", st.PostFilterCandidates)
	}
	for l := 0; l < 4; l++ {
		if st.ActualCandidates[l] > st.PostFilterCandidates[l] {
			t.Errorf("level %d: actual %v > post-filter %v", l+1,
				st.ActualCandidates[l], st.PostFilterCandidates[l])
		}
	}
	if st.HyperplanesPerCell[0] <= 0 || st.LPCalls == 0 {
		t.Errorf("hyperplanes/LP stats missing: %+v", st)
	}
}

// TestIBAHyperplanesExceedPBA reproduces the Table 4 observation: the
// Definition-2 representation used by IBA has far more halfspaces per cell
// than the bounding sets kept by PBA⁺.
func TestIBAHyperplanesExceedPBA(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	data := randData(rng, 60, 3)
	pba := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 3})
	iba := buildOrFail(t, data, Config{Algorithm: IBA, Tau: 3})
	for l := 0; l < 3; l++ {
		if iba.Stats.HyperplanesPerCell[l] < pba.Stats.HyperplanesPerCell[l] {
			t.Errorf("level %d: IBA %.1f < PBA+ %.1f hyperplanes per cell", l+1,
				iba.Stats.HyperplanesPerCell[l], pba.Stats.HyperplanesPerCell[l])
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{PBAPlus: "PBA+", PBA: "PBA", IBA: "IBA", IBAR: "IBA-R", BSL: "BSL"}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
	if !strings.HasPrefix(Algorithm(99).String(), "Algorithm(") {
		t.Error("unknown algorithm string")
	}
}

func TestTauOneAllBuilders(t *testing.T) {
	// τ=1 degenerates the index to the convex top-1 arrangement; every
	// builder must agree and every cell must be valid.
	rng := rand.New(rand.NewSource(909))
	data := randData(rng, 30, 3)
	ref := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 1})
	for _, alg := range []Algorithm{PBA, IBA, IBAR, BSL} {
		ix := buildOrFail(t, data, Config{Algorithm: alg, Tau: 1})
		if got, want := levelSignatures(ix, 1), levelSignatures(ref, 1); !equalStrings(got, want) {
			t.Fatalf("%v: %v vs %v", alg, got, want)
		}
		if err := ix.Validate(true); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

func TestAllBuildersFullRegionValidation(t *testing.T) {
	// Region-level validation (every cell non-empty) for every builder on
	// the paper's example.
	for _, alg := range allAlgorithms {
		ix := buildOrFail(t, hotels, Config{Algorithm: alg, Tau: 3})
		if err := ix.Validate(true); err != nil {
			t.Errorf("%v: %v", alg, err)
		}
	}
}

// TestPBAPlusCellsHaveInteriors: every cell of the PBA⁺ build of IND n=8000
// d=3 τ=8 seed 1 has an interior. A merged cell carries the samples of all
// of its parts, and a sample where a candidate won once certified a
// level-8 child that lay outside the cell: its region was empty.
func TestPBAPlusCellsHaveInteriors(t *testing.T) {
	ix := buildOrFail(t, datagen.Generate(datagen.IND, 8000, 3, 1), Config{Algorithm: PBAPlus, Tau: 8})
	if err := ix.Validate(true); err != nil {
		t.Fatal(err)
	}
}
