package tlevelindex

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randSimplexW returns a valid full weight vector of dimension d.
func randSimplexW(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d)
	s := 0.0
	for i := range w {
		w[i] = rng.Float64()
		s += w[i]
	}
	for i := range w {
		w[i] /= s
	}
	return w
}

func batchAPIIndex(t *testing.T) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	data := make([][]float64, 150)
	for i := range data {
		data[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	ix, err := Build(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestTopKBatchAPIMatchesSingle: the public batch answer must be
// element-wise identical to TopKContext + LocateDepth per item, and
// malformed vectors must fail per-item without disturbing their neighbors.
func TestTopKBatchAPIMatchesSingle(t *testing.T) {
	ix := batchAPIIndex(t)
	rng := rand.New(rand.NewSource(22))
	ws := make([][]float64, 24)
	for i := range ws {
		ws[i] = randSimplexW(rng, ix.Dim())
	}
	ws[5] = []float64{0.9, 0.9, 0.9} // sum != 1: per-item failure
	ws[11] = nil                     // wrong dimension
	for _, k := range []int{1, 2, 4} {
		items, err := ix.TopKBatchContext(context.Background(), ws, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ws {
			if i == 5 || i == 11 {
				if !errors.Is(items[i].Err, ErrInvalidWeights) {
					t.Fatalf("k=%d item %d: Err = %v, want ErrInvalidWeights", k, i, items[i].Err)
				}
				if items[i].Options != nil || items[i].Level != 0 {
					t.Fatalf("k=%d item %d: rejected item carries data: %+v", k, i, items[i])
				}
				continue
			}
			want, err := ix.TopKContext(context.Background(), w, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(items[i].Options, want.Options) || items[i].Stats != want.Stats {
				t.Fatalf("k=%d item %d: batch %+v != single %+v", k, i, items[i], want)
			}
			key, level, err := ix.LocateDepth(w, k)
			if err != nil {
				t.Fatal(err)
			}
			if items[i].Key != key || items[i].Level != level {
				t.Fatalf("k=%d item %d: key/level %v/%d != LocateDepth %v/%d",
					k, i, items[i].Key, items[i].Level, key, level)
			}
		}
	}
	// Plain variant: same answers as the context variant.
	plain, err := ix.TopKBatch(ws, 2)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, _ := ix.TopKBatchContext(context.Background(), ws, 2)
	if !reflect.DeepEqual(plain, withCtx) {
		t.Fatal("TopKBatch disagrees with TopKBatchContext")
	}
	if _, err := ix.TopKBatch(ws, 0); err == nil {
		t.Fatal("k=0 must fail the whole batch")
	}
}

func TestKSPRBatchAPIMatchesSingle(t *testing.T) {
	ix := batchAPIIndex(t)
	focals := append([]int{}, ix.LevelOptions(1)...)
	focals = append(focals, focals[0], 149, focals[0]) // duplicates + likely-filtered id
	out, err := ix.KSPRBatchContext(context.Background(), 3, focals)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range focals {
		want, err := ix.KSPR(3, f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out[i].Regions, want.Regions) || out[i].Stats != want.Stats {
			t.Fatalf("item %d (focal %d): batch != single", i, f)
		}
	}
	// Every item is its own answer: a caller may edit one without touching
	// the repeat of its focal.
	if dup := len(focals) - 3; focals[dup] != focals[0] || out[dup] == out[0] {
		t.Fatalf("item %d repeats focal %d and shares item 0's result", dup, focals[0])
	}
	if _, err := ix.KSPRBatchContext(context.Background(), 3, []int{-1}); err == nil {
		t.Fatal("negative focal must fail the whole batch")
	}
}

// TestKSPRBatchAPICancellation: a canceled KSPR batch surfaces ctx's error
// with every item non-nil — focals the walk never reached report empty
// results, not nil pointers.
func TestKSPRBatchAPICancellation(t *testing.T) {
	ix := batchAPIIndex(t)
	focals := append([]int{}, ix.LevelOptions(1)...)
	if len(focals) < 2 {
		t.Fatal("fixture has too few level-1 options")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := ix.KSPRBatchContext(ctx, 3, focals)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != len(focals) {
		t.Fatalf("len(out) = %d, want %d", len(out), len(focals))
	}
	for i, r := range out {
		if r == nil {
			t.Fatalf("item %d: canceled batch returned a nil result", i)
		}
	}
}

// TestBatchNaNWeightsRejected: NaN entries defeat both of reduce's range
// checks (NaN comparisons are false), so they must be rejected explicitly —
// per item in the batch paths, as a plain error in the single paths.
func TestBatchNaNWeightsRejected(t *testing.T) {
	ix := batchAPIIndex(t)
	bad := []float64{math.NaN(), 0.5, 0.5}
	if _, err := ix.TopKContext(context.Background(), bad, 2); !errors.Is(err, ErrInvalidWeights) {
		t.Fatalf("TopKContext err = %v, want ErrInvalidWeights", err)
	}
	good := []float64{0.2, 0.3, 0.5}
	items, err := ix.TopKBatch([][]float64{bad, good}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(items[0].Err, ErrInvalidWeights) {
		t.Fatalf("item 0: Err = %v, want ErrInvalidWeights", items[0].Err)
	}
	if items[1].Err != nil || len(items[1].Options) == 0 {
		t.Fatalf("item 1: %+v, want a normal answer", items[1])
	}
	loc := ix.LocateBatch([][]float64{bad}, 2)
	if !errors.Is(loc[0].Err, ErrInvalidWeights) {
		t.Fatalf("LocateBatch Err = %v, want ErrInvalidWeights", loc[0].Err)
	}
}

func TestLocateBatchAPIMatchesSingle(t *testing.T) {
	ix := batchAPIIndex(t)
	rng := rand.New(rand.NewSource(23))
	ws := make([][]float64, 16)
	for i := range ws {
		ws[i] = randSimplexW(rng, ix.Dim())
	}
	ws[3] = []float64{2, -1, 0}
	for _, k := range []int{-1, 0, 1, 4, 9} { // 9 > τ exercises clamping; k < 1 the entry-cell key
		items := ix.LocateBatch(ws, k)
		for i, w := range ws {
			if i == 3 {
				if !errors.Is(items[i].Err, ErrInvalidWeights) {
					t.Fatalf("item 3: Err = %v, want ErrInvalidWeights", items[i].Err)
				}
				continue
			}
			key, level, err := ix.LocateDepth(w, k)
			if err != nil {
				t.Fatal(err)
			}
			if items[i].Key != key || items[i].Level != level {
				t.Fatalf("k=%d item %d: %v/%d != LocateDepth %v/%d",
					k, i, items[i].Key, items[i].Level, key, level)
			}
		}
	}
}

func TestLocateTopKAPIMatchesSingle(t *testing.T) {
	ix := batchAPIIndex(t)
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 20; i++ {
		w := randSimplexW(rng, ix.Dim())
		for _, k := range []int{1, 2, 4, 9} {
			key, level, res, err := ix.LocateTopK(context.Background(), w, k)
			if err != nil {
				t.Fatal(err)
			}
			wantKey, wantLevel, err := ix.LocateDepth(w, k)
			if err != nil {
				t.Fatal(err)
			}
			if key != wantKey || level != wantLevel {
				t.Fatalf("k=%d: key/level %v/%d != LocateDepth %v/%d", k, key, level, wantKey, wantLevel)
			}
			if k > ix.Tau() {
				if _, err := ix.TopKContext(context.Background(), w, k); !errors.Is(err, ErrBeyondTau) {
					t.Fatalf("k=%d: TopKContext err %v, want ErrBeyondTau", k, err)
				}
			} else {
				want, err := ix.TopKContext(context.Background(), w, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Options, want.Options) || res.Stats != want.Stats ||
					res.Key != key || want.Key != key {
					t.Fatalf("k=%d: LocateTopK %+v != TopKContext %+v (key %v)", k, res, want, key)
				}
			}
		}
	}
	if _, _, _, err := ix.LocateTopK(context.Background(), []float64{0.5}, 2); !errors.Is(err, ErrInvalidWeights) {
		t.Fatalf("invalid weights: err = %v", err)
	}
}

// TestLocateTopKAllocs: the public LocateTopK sizes its answer buffer up
// front like TopKContext, so the two allocate the same per query; answers
// grown by append would cost one allocation per doubling.
func TestLocateTopKAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ix := batchAPIIndex(t)
	ctx := context.Background()
	w := randSimplexW(rand.New(rand.NewSource(26)), ix.Dim())
	k := ix.Tau()
	locate := testing.AllocsPerRun(100, func() {
		if _, _, _, err := ix.LocateTopK(ctx, w, k); err != nil {
			t.Fatal(err)
		}
	})
	topk := testing.AllocsPerRun(100, func() {
		if _, err := ix.TopKContext(ctx, w, k); err != nil {
			t.Fatal(err)
		}
	})
	if locate != topk {
		t.Fatalf("k=%d: LocateTopK %.1f allocs/op, TopKContext %.1f", k, locate, topk)
	}
}

// TestBatchStrictDepth: the batch variants, plain and context, refuse k
// beyond τ as a whole-batch error, with or without the full dataset, like
// every other query.
func TestBatchStrictDepth(t *testing.T) {
	ctx := context.Background()
	for _, ix := range []*Index{buildHotels(t), buildHotels(t, WithoutFullData())} {
		ws := [][]float64{{0.18, 0.82}}
		k := ix.Tau() + 1
		if _, err := ix.TopKBatch(ws, k); !errors.Is(err, ErrBeyondTau) {
			t.Fatalf("TopKBatch err = %v, want ErrBeyondTau", err)
		}
		if _, err := ix.TopKBatchContext(ctx, ws, k); !errors.Is(err, ErrBeyondTau) {
			t.Fatalf("TopKBatchContext err = %v, want ErrBeyondTau", err)
		}
		if _, err := ix.KSPRBatch(k, []int{0}); !errors.Is(err, ErrBeyondTau) {
			t.Fatalf("KSPRBatch err = %v, want ErrBeyondTau", err)
		}
		if _, err := ix.KSPRBatchContext(ctx, k, []int{0}); !errors.Is(err, ErrBeyondTau) {
			t.Fatalf("KSPRBatchContext err = %v, want ErrBeyondTau", err)
		}
	}
}

// TestTopKBatchAPICancellation: a canceled batch surfaces ctx's error and
// per-item partial prefixes.
func TestTopKBatchAPICancellation(t *testing.T) {
	ix := batchAPIIndex(t)
	rng := rand.New(rand.NewSource(25))
	ws := make([][]float64, 12)
	for i := range ws {
		ws[i] = randSimplexW(rng, ix.Dim())
	}
	full, err := ix.TopKBatchContext(context.Background(), ws, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	part, err := ix.TopKBatchContext(ctx, ws, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range ws {
		n := len(part[i].Options)
		if !reflect.DeepEqual(part[i].Options, full[i].Options[:n]) {
			t.Fatalf("item %d: partial %v is not a prefix of %v", i, part[i].Options, full[i].Options)
		}
		if part[i].Level != n {
			t.Fatalf("item %d: level %d != len(options) %d", i, part[i].Level, n)
		}
	}
}
