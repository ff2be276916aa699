package tlevelindex

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"tlevelindex/baseline"
	"tlevelindex/datagen"
)

func TestInsertPublic(t *testing.T) {
	ix := buildHotels(t)
	// A new strong hotel enters the market.
	id, err := ix.Insert([]float64{0.95, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 {
		t.Fatalf("inserted id = %d, want 5 (next dataset index)", id)
	}
	// It dominates everything: top-1 everywhere.
	top, err := ix.TopK([]float64{0.5, 0.5}, 1)
	if err != nil || top[0] != id {
		t.Fatalf("top-1 after insert = %v (%v)", top, err)
	}
	rank, _ := ix.MaxRank(id)
	if rank != 1 {
		t.Errorf("MaxRank of dominating insert = %d", rank)
	}
	// The old leaders moved down a slot at some weights.
	kspr, err := ix.KSPR(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kspr.Regions) == 0 {
		t.Error("VibesInn should still be top-2 somewhere")
	}

	// A hopeless option is filtered.
	id2, err := ix.Insert([]float64{0.02, 0.02})
	if err != nil || id2 != -1 {
		t.Fatalf("hopeless insert: id=%d err=%v", id2, err)
	}
	// A query past τ is refused and leaves inserts open.
	if _, err := ix.TopK([]float64{0.5, 0.5}, ix.Tau()+1); !errors.Is(err, ErrBeyondTau) {
		t.Fatalf("top-k past τ: err %v, want ErrBeyondTau", err)
	}
	if id, err := ix.Insert([]float64{0.9, 0.9}); err != nil || id != 6 {
		t.Errorf("Insert after a refused deep query: id %d, err %v", id, err)
	}
}

func TestInsertBatchPublic(t *testing.T) {
	seq, bat := buildHotels(t), buildHotels(t)
	batch := [][]float64{
		{0.95, 0.95}, // accepted: dominates everything
		{0.02, 0.02}, // filtered: hopeless
		{0.95, 0.95}, // duplicate of the first batch member
		{0.9, 0.2},   // accepted
	}
	var wantIDs []int
	for _, r := range batch {
		id, err := seq.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs = append(wantIDs, id)
	}
	results, stats := bat.InsertBatch(batch)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
		if res.ID != wantIDs[i] {
			t.Fatalf("item %d: batch id %d, sequential id %d", i, res.ID, wantIDs[i])
		}
	}
	if stats.Accepted != 2 {
		t.Fatalf("accepted = %d, want 2", stats.Accepted)
	}
	// The batch-built index answers exactly like the sequentially built one.
	top, err := bat.TopK([]float64{0.5, 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.TopK([]float64{0.5, 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("top-2 after batch = %v, sequential = %v", top, want)
	}
	// An ExtendTau'd index takes a batch like any other.
	if err := bat.ExtendTau(bat.Tau() + 1); err != nil {
		t.Fatal(err)
	}
	results, _ = bat.InsertBatch([][]float64{{0.99, 0.99}})
	if results[0].Err != nil || results[0].ID < 0 {
		t.Errorf("InsertBatch after ExtendTau: %+v", results[0])
	}
}

// TestNonFiniteOptionsPublic: a NaN or infinite coordinate is refused by
// Build, by Insert and per item by InsertBatch, and a refused item takes no
// dataset id.
func TestNonFiniteOptionsPublic(t *testing.T) {
	nan := [][]float64{{0.9, 0.1}, {0.1, 0.9}, {math.NaN(), 0.5}, {0.3, 0.3}, {0.7, 0.2}}
	if _, err := Build(nan, 3); err == nil {
		t.Fatal("Build accepted a NaN option")
	}
	ix := buildHotels(t)
	if id, err := ix.Insert([]float64{math.Inf(1), 0.2}); err == nil || id != -1 {
		t.Fatalf("Insert(+Inf) = %d, %v; want -1 and an error", id, err)
	}
	results, stats := ix.InsertBatch([][]float64{{math.NaN(), 0.95}, {0.95, 0.95}, {0.2, math.Inf(-1)}})
	if results[0].Err == nil || results[2].Err == nil || results[0].ID != -1 || results[2].ID != -1 {
		t.Fatalf("non-finite batch items: %+v", results)
	}
	if results[1].Err != nil || results[1].ID != 5 || stats.Accepted != 1 {
		t.Fatalf("finite batch item: %+v (accepted %d), want id 5", results[1], stats.Accepted)
	}
}

func TestExtendTauPublic(t *testing.T) {
	ix := buildHotels(t)
	if err := ix.ExtendTau(4); err != nil {
		t.Fatal(err)
	}
	if ix.Tau() != 4 {
		t.Fatalf("tau = %d", ix.Tau())
	}
	top, err := ix.TopK([]float64{0.18, 0.82}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(top, []int{0, 3, 1, 2}) {
		t.Errorf("top-4 after ExtendTau = %v", top)
	}
}

func TestLevelOptionsPublic(t *testing.T) {
	ix := buildHotels(t)
	if got := ix.LevelOptions(1); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("level-1 options = %v", got)
	}
	if got := ix.LevelOptions(2); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("level-2 options = %v", got)
	}
	if got := ix.LevelOptions(9); got != nil {
		t.Errorf("out-of-range level gave %v", got)
	}
}

func TestMonoRTopKPublic(t *testing.T) {
	ix := buildHotels(t)
	// VibesInn ranks top-2 exactly on [0, 0.7963]: one merged segment.
	segs, err := ix.MonoRTopK(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want one merged segment", segs)
	}
	if segs[0].Lo > 1e-6 || segs[0].Hi < 0.79 || segs[0].Hi > 0.80 {
		t.Errorf("segment = %+v, want [0, 0.7963]", segs[0])
	}
	// citizenM is top-2 only on [0.7963, 1].
	segs2, err := ix.MonoRTopK(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs2) != 1 || segs2[0].Lo < 0.79 || segs2[0].Hi < 0.999 {
		t.Errorf("citizenM segments = %v", segs2)
	}
	// Royalton never ranks top-3: no segments, no error.
	segs3, err := ix.MonoRTopK(3, 4)
	if err != nil || segs3 != nil {
		t.Errorf("royalton: %v, %v", segs3, err)
	}
	// Higher-dimensional data is rejected.
	hd, err := Build([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hd.MonoRTopK(2, 0); err == nil {
		t.Error("MonoRTopK on 3-attribute data should fail")
	}
	if _, err := ix.MonoRTopK(0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestWhyNotSuggestedW(t *testing.T) {
	ix := buildHotels(t)
	res, err := ix.WhyNot(0, []float64{0.9, 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuggestedW == nil {
		t.Fatal("expected a suggested weight vector")
	}
	if len(res.SuggestedW) != 2 {
		t.Fatalf("suggested weights: %v", res.SuggestedW)
	}
	// The suggestion must actually put the option in the top-2 and lie at
	// the reported distance.
	top, err := ix.TopK(res.SuggestedW, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range top {
		if o == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("suggested weights %v do not rank the option top-2 (%v)", res.SuggestedW, top)
	}
	if d := res.SuggestedW[0] - 0.9; d > 0 || -d-res.MinShift > 1e-6 {
		t.Errorf("suggestion %v inconsistent with min shift %v", res.SuggestedW, res.MinShift)
	}
}

func TestMarketShare(t *testing.T) {
	ix := buildHotels(t)
	// VibesInn is top-2 on [0, 0.7963]: share ~0.7963 of preference space.
	share, err := ix.MarketShare(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.79 || share > 0.80 {
		t.Errorf("VibesInn top-2 share = %v, want ~0.7963", share)
	}
	// Top-1 shares of the two leaders partition the whole space.
	s0, _ := ix.MarketShare(0, 1)
	s1, _ := ix.MarketShare(1, 1)
	if d := s0 + s1 - 1; d > 1e-9 || d < -1e-9 {
		t.Errorf("top-1 shares sum to %v, want 1", s0+s1)
	}
	// Royalton has no share at any k <= tau.
	s4, _ := ix.MarketShare(4, 3)
	if s4 != 0 {
		t.Errorf("royalton share = %v", s4)
	}
	if _, err := ix.MarketShare(-1, 2); err == nil {
		t.Error("negative focal accepted")
	}
	if _, err := ix.MarketShare(0, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestReverseTopK(t *testing.T) {
	ix := buildHotels(t)
	users := [][]float64{
		{0.10, 0.90}, // ranks VibesInn 1st
		{0.45, 0.55}, // VibesInn 1st
		{0.70, 0.30}, // VibesInn 2nd
		{0.90, 0.10}, // VibesInn 3rd: not in top-2
	}
	got, err := ix.ReverseTopK(2, 0, users)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("reverse top-2 users = %v, want [0 1 2]", got)
	}
	// Cross-check against brute-force ranks for random users and options.
	rng := rand.New(rand.NewSource(44))
	data := datagen.Generate(datagen.IND, 40, 3, 9)
	ix2, err := Build(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	var randomUsers [][]float64
	for i := 0; i < 50; i++ {
		a, b := rng.Float64(), rng.Float64()
		if a+b > 1 {
			a, b = (1-a)/2, (1-b)/2
		}
		randomUsers = append(randomUsers, []float64{a, b, 1 - a - b})
	}
	for focal := 0; focal < 40; focal += 7 {
		got, err := ix2.ReverseTopK(3, focal, randomUsers)
		if err != nil {
			t.Fatal(err)
		}
		gotSet := map[int]bool{}
		for _, u := range got {
			gotSet[u] = true
		}
		for ui, w := range randomUsers {
			rank := baseline.BruteRank(data, focal, w[:2])
			if (rank <= 3) != gotSet[ui] {
				t.Fatalf("focal %d user %d: brute rank %d, in answer %v", focal, ui, rank, gotSet[ui])
			}
		}
	}
	if _, err := ix.ReverseTopK(0, 0, users); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ix.ReverseTopK(2, 0, [][]float64{{0.5}}); err == nil {
		t.Error("short user vector accepted")
	}
}

// TestBuildHoldsNoMemo: a built index holds what its cells need and
// nothing the build used along the way, so the live heap after Build is
// the live heap after a rebuild of the same index, one option larger: an
// accepted insert rebuilds it with PBA⁺ from the pool. Measured after a
// forced GC, within 10 %.
func TestBuildHoldsNoMemo(t *testing.T) {
	data := datagen.Generate(datagen.IND, 2000, 3, 1)
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the first only moves pooled scratch to the victim cache
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := live()
	ix, err := Build(data, 5)
	if err != nil {
		t.Fatal(err)
	}
	built := live() - base
	id, err := ix.Insert([]float64{0.9995, 0.1, 0.1})
	if err != nil || id != len(data) {
		t.Fatalf("insert: id %d, %v; want an accepted option, id %d", id, err, len(data))
	}
	rebuilt := live() - base
	t.Logf("live heap: %d B after Build, %d B after the insert's rebuild", built, rebuilt)
	if float64(built) > 1.1*float64(rebuilt) || float64(rebuilt) > 1.1*float64(built) {
		t.Fatalf("live heap after Build %d B, after a rebuild %d B: more than 10 %% apart", built, rebuilt)
	}
	runtime.KeepAlive(ix)
}
