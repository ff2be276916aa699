package tlevelindex

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tlevelindex/baseline"
	"tlevelindex/datagen"
	"tlevelindex/internal/geom"
)

// The paper's hotel dataset (Figure 2a).
var hotels = [][]float64{
	{0.62, 0.76}, // 0 VibesInn
	{0.90, 0.48}, // 1 Artezen
	{0.73, 0.33}, // 2 citizenM
	{0.26, 0.64}, // 3 Yotel
	{0.30, 0.24}, // 4 Royalton
}

func buildHotels(t *testing.T, opts ...Option) *Index {
	t.Helper()
	ix, err := Build(hotels, 3, opts...)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix
}

func TestBuildAndShape(t *testing.T) {
	ix := buildHotels(t)
	if ix.Tau() != 3 || ix.Dim() != 2 {
		t.Errorf("tau=%d dim=%d", ix.Tau(), ix.Dim())
	}
	// Figure 2(c): 2 + 4 + 4 cells plus the entry cell.
	if got := ix.CellsPerLevel(); !reflect.DeepEqual(got, []int{2, 4, 4}) {
		t.Errorf("cells per level = %v, want [2 4 4]", got)
	}
	if ix.NumCells() != 11 {
		t.Errorf("NumCells = %d, want 11", ix.NumCells())
	}
	if ix.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
	st := ix.Stats()
	if st.Algorithm != "PBA+" || st.FilteredOptions != 4 {
		t.Errorf("stats: %+v", st)
	}
}

func TestBuildAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{PBAPlus, PBA, IBA, IBAR, BSL} {
		ix, err := Build(hotels, 3, WithAlgorithm(alg), WithSeed(42))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := ix.CellsPerLevel(); !reflect.DeepEqual(got, []int{2, 4, 4}) {
			t.Errorf("%v: cells per level = %v", alg, got)
		}
	}
}

func TestTopKPaperExample(t *testing.T) {
	ix := buildHotels(t)
	// §2.1: the top-2 hotels of w = (0.18, 0.82) are {VibesInn, Yotel}.
	top, err := ix.TopK([]float64{0.18, 0.82}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(top, []int{0, 3}) {
		t.Errorf("top-2 at (0.18,0.82) = %v, want [0 3]", top)
	}
}

func TestKSPRPaperExample(t *testing.T) {
	ix := buildHotels(t)
	res, err := ix.KSPR(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 2 {
		t.Fatalf("kSPR regions = %d, want 2", len(res.Regions))
	}
	// Union must cover [0, 0.7963] and nothing above.
	inUnion := func(w float64) bool {
		for _, r := range res.Regions {
			if r.Contains([]float64{w}) {
				return true
			}
		}
		return false
	}
	for _, w := range []float64{0.01, 0.4, 0.79} {
		if !inUnion(w) {
			t.Errorf("w=%v should be in kSPR(2, VibesInn)", w)
		}
	}
	for _, w := range []float64{0.81, 0.99} {
		if inUnion(w) {
			t.Errorf("w=%v should not be in kSPR(2, VibesInn)", w)
		}
	}
	// The paper's walk visits 5 cells; the option→cells column reads the 2
	// it reports.
	if res.Stats.VisitedCells != 2 {
		t.Errorf("visited = %d, want 2", res.Stats.VisitedCells)
	}
}

func TestUTKPaperExample(t *testing.T) {
	ix := buildHotels(t)
	res, err := ix.UTK(3, []float64{0.35}, []float64{0.45})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Options, []int{0, 1, 2, 3}) {
		t.Errorf("UTK options = %v", res.Options)
	}
	if len(res.Partitions) != 2 {
		t.Errorf("UTK partitions = %d, want 2", len(res.Partitions))
	}
	for _, p := range res.Partitions {
		if len(p.TopK) != 3 || len(p.Region.Halfspaces) == 0 {
			t.Errorf("bad partition: %+v", p)
		}
	}
}

func TestORUPaperExample(t *testing.T) {
	ix := buildHotels(t)
	res, err := ix.ORU(2, []float64{0.3, 0.7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]int(nil), res.Options...)
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Errorf("ORU options = %v, want [0 1 3]", got)
	}
	if math.Abs(res.Rho-0.1) > 1e-6 {
		t.Errorf("rho = %v, want 0.1", res.Rho)
	}
}

func TestMaxRank(t *testing.T) {
	ix := buildHotels(t)
	// VibesInn and Artezen are top-1 somewhere; citizenM and Yotel top-2nd;
	// Royalton never ranks top-3.
	want := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: -1}
	for opt, rank := range want {
		got, err := ix.MaxRank(opt)
		if err != nil || got != rank {
			t.Errorf("MaxRank(%d) = %d (%v), want %d", opt, got, err, rank)
		}
	}
}

func TestWhyNot(t *testing.T) {
	ix := buildHotels(t)
	res, err := ix.WhyNot(0, []float64{0.9, 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.InTopK || res.Rank != 3 {
		t.Errorf("why-not rank = %d inTopK=%v", res.Rank, res.InTopK)
	}
	if res.MinShift < 0.09 || res.MinShift > 0.12 {
		t.Errorf("min shift = %v, want ~0.104", res.MinShift)
	}
	// Royalton can never be top-3.
	res2, _ := ix.WhyNot(4, []float64{0.5, 0.5}, 3)
	if res2.MinShift != -1 {
		t.Errorf("royalton min shift = %v, want -1", res2.MinShift)
	}
}

func TestInputValidation(t *testing.T) {
	ix := buildHotels(t)
	if _, err := ix.TopK([]float64{0.5}, 2); err == nil {
		t.Error("short weight vector accepted")
	}
	if _, err := ix.TopK([]float64{0.9, 0.3}, 2); err == nil {
		t.Error("non-normalized weights accepted")
	}
	if _, err := ix.TopK([]float64{1.5, -0.5}, 2); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := ix.TopK([]float64{0.5, 0.5}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ix.KSPR(0, 1); err == nil {
		t.Error("kSPR k=0 accepted")
	}
	if _, err := ix.KSPR(2, -1); err == nil {
		t.Error("negative focal accepted")
	}
	if _, err := ix.UTK(2, []float64{0.3}, []float64{0.2}); err == nil {
		t.Error("inverted box accepted")
	}
	if _, err := ix.UTK(2, []float64{0.3, 0.3}, []float64{0.4, 0.4}); err == nil {
		t.Error("wrong box dimension accepted")
	}
	// NaN passes every order check, so it needs its own rejection.
	for _, box := range [][2][]float64{
		{{math.NaN()}, {0.4}},
		{{0.3}, {math.NaN()}},
		{{math.Inf(-1)}, {0.4}},
		{{0.3}, {math.Inf(1)}},
	} {
		if _, err := ix.UTK(2, box[0], box[1]); err == nil {
			t.Errorf("box %v..%v accepted", box[0], box[1])
		}
		if _, err := ix.UTKContext(context.Background(), 2, box[0], box[1]); err == nil {
			t.Errorf("box %v..%v accepted under a context", box[0], box[1])
		}
	}
	if _, err := ix.ORU(2, []float64{0.3, 0.7}, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := ix.MaxRank(-3); err == nil {
		t.Error("negative option accepted")
	}
	if _, err := Build(nil, 3); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestSerializationRoundtripPublic(t *testing.T) {
	ix := buildHotels(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ix.TopK([]float64{0.18, 0.82}, 3)
	b, _ := got.TopK([]float64{0.18, 0.82}, 3)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("TopK differs after roundtrip: %v vs %v", a, b)
	}
}

// TestAgainstBaselines cross-checks index query answers against the
// specialized baseline algorithms on synthetic data — the correctness half
// of the paper's §7.3 comparison.
func TestAgainstBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, dist := range []datagen.Distribution{datagen.IND, datagen.COR, datagen.ANTI} {
		data := datagen.Generate(dist, 60, 3, 5)
		ix, err := Build(data, 4)
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		brs := baseline.NewBRS(data)
		// Top-k vs BRS.
		for probe := 0; probe < 25; probe++ {
			a, b2 := rng.Float64(), rng.Float64()
			if a+b2 > 1 {
				a, b2 = (1-a)/2, (1-b2)/2
			}
			w := []float64{a, b2, 1 - a - b2}
			got, err := ix.TopK(w, 4)
			if err != nil {
				t.Fatal(err)
			}
			want := brs.TopK(w[:2], 4)
			for i := range got {
				if got[i] != want[i] {
					gs := score(data[got[i]], w)
					ws := score(data[want[i]], w)
					if math.Abs(gs-ws) > 1e-9 {
						t.Fatalf("%v: TopK rank %d: %d vs BRS %d", dist, i+1, got[i], want[i])
					}
				}
			}
		}
		// UTK vs JAA.
		lo := []float64{0.3, 0.3}
		hi := []float64{0.38, 0.38}
		gotU, err := ix.UTK(3, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		wantU, _ := baseline.JAA(brs, geom.NewBox(lo, hi), 3)
		if !reflect.DeepEqual(gotU.Options, wantU.Options) {
			t.Fatalf("%v: UTK %v vs JAA %v", dist, gotU.Options, wantU.Options)
		}
		// ORU vs expansion baseline.
		gotO, err := ix.ORU(3, []float64{0.33, 0.33, 0.34}, 5)
		if err != nil {
			t.Fatal(err)
		}
		wantO, _ := baseline.ORU(brs, []float64{0.33, 0.33}, 3, 5)
		gs := append([]int(nil), gotO.Options...)
		ws := append([]int(nil), wantO.Options...)
		sort.Ints(gs)
		sort.Ints(ws)
		if math.Abs(gotO.Rho-wantO.Rho) > 1e-6 {
			t.Fatalf("%v: ORU rho %v vs baseline %v (opts %v vs %v)", dist, gotO.Rho, wantO.Rho, gs, ws)
		}
		// kSPR vs LP-CTA: compare region membership on samples.
		for fi := 0; fi < 6; fi++ {
			gotK, err := ix.KSPR(3, fi)
			if err != nil {
				t.Fatal(err)
			}
			regions, _ := baseline.LPCTA(data, fi, 3)
			for probe := 0; probe < 30; probe++ {
				a, b2 := rng.Float64(), rng.Float64()
				if a+b2 > 1 {
					a, b2 = (1-a)/2, (1-b2)/2
				}
				x := []float64{a, b2}
				inIx := false
				for _, r := range gotK.Regions {
					if r.Contains(x) {
						inIx = true
						break
					}
				}
				inBl := false
				for _, r := range regions {
					if r.ContainsPoint(x, 1e-7) {
						inBl = true
						break
					}
				}
				if inIx != inBl {
					// Tolerate exact-boundary disagreement only.
					rank := baseline.BruteRank(data, fi, x)
					if (rank <= 3) != inIx && (rank <= 3) == inBl {
						t.Fatalf("%v: kSPR membership differs at %v (rank %d)", dist, x, rank)
					}
				}
			}
		}
	}
}

func score(r, w []float64) float64 {
	s := 0.0
	for i := range r {
		s += r[i] * w[i]
	}
	return s
}

// TestLargeScaleValidation builds a moderately sized index and validates
// every query type against brute force. Skipped under -short.
func TestLargeScaleValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("large validation skipped in short mode")
	}
	rng := rand.New(rand.NewSource(123))
	data := datagen.Generate(datagen.IND, 3000, 3, 77)
	ix, err := Build(data, 5)
	if err != nil {
		t.Fatal(err)
	}
	brs := baseline.NewBRS(data)
	for probe := 0; probe < 200; probe++ {
		a, b := rng.Float64(), rng.Float64()
		if a+b > 1 {
			a, b = (1-a)/2, (1-b)/2
		}
		w := []float64{a, b, 1 - a - b}
		got, err := ix.TopK(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := brs.TopK(w[:2], 5)
		for i := range got {
			if got[i] != want[i] {
				gs := score(data[got[i]], w)
				ws := score(data[want[i]], w)
				if math.Abs(gs-ws) > 1e-9 {
					t.Fatalf("probe %d rank %d: %d vs %d", probe, i+1, got[i], want[i])
				}
			}
		}
	}
	// kSPR coverage for a handful of focal options.
	checked := 0
	for focal := 0; focal < len(data) && checked < 5; focal++ {
		rank, err := ix.MaxRank(focal)
		if err != nil {
			t.Fatal(err)
		}
		if rank < 0 {
			continue
		}
		checked++
		res, err := ix.KSPR(3, focal)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 50; probe++ {
			a, b := rng.Float64(), rng.Float64()
			if a+b > 1 {
				a, b = (1-a)/2, (1-b)/2
			}
			x := []float64{a, b}
			in := false
			for _, r := range res.Regions {
				if r.Contains(x) {
					in = true
					break
				}
			}
			brRank := baseline.BruteRank(data, focal, x)
			if (brRank <= 3) != in {
				// Tolerate only boundary cases.
				if brRank <= 3 {
					t.Fatalf("focal %d: rank %d at %v but outside kSPR answer", focal, brRank, x)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no indexable focal options found")
	}
}
