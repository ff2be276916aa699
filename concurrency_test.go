package tlevelindex

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"tlevelindex/datagen"
	"tlevelindex/internal/index"
)

// TestParallelBuildDeterminism verifies the central promise of the worker
// pool: the serialized index is byte-identical for every worker count, for
// every builder. The parallel phases only compute; cells and edges always
// materialize in the same sequential order.
func TestParallelBuildDeterminism(t *testing.T) {
	data := datagen.Generate(datagen.ANTI, 60, 3, 5)
	for _, alg := range []Algorithm{PBAPlus, PBA, IBA, IBAR, BSL} {
		var ref []byte
		for _, wk := range []int{1, 8} {
			ix, err := Build(data, 3, WithAlgorithm(alg), WithSeed(7), WithWorkers(wk))
			if err != nil {
				t.Fatalf("%v workers=%d: %v", alg, wk, err)
			}
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				t.Fatalf("%v workers=%d: serialize: %v", alg, wk, err)
			}
			if wk == 1 {
				ref = buf.Bytes()
				continue
			}
			if !bytes.Equal(ref, buf.Bytes()) {
				t.Errorf("%v: serialized index differs between 1 and %d workers", alg, wk)
			}
		}
	}
	t.Run("PBA+ IND d=3 merging", checkMergeDeterminism)
}

// checkMergeDeterminism is the PBA⁺ case whose dominance graphs merge in
// the parallel phase: an IND d=3 index whose children merge at several
// levels must serialize identically, and report the same LP calls and memo
// entries, at 1, 2 and 8 workers.
func checkMergeDeterminism(t *testing.T) {
	data := datagen.Generate(datagen.IND, 2000, 3, 1)
	var ref []byte
	var refStats BuildStats
	for _, wk := range []int{1, 2, 8} {
		ix, err := Build(data, 5, WithAlgorithm(PBAPlus), WithWorkers(wk))
		if err != nil {
			t.Fatalf("workers=%d: %v", wk, err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatalf("workers=%d: serialize: %v", wk, err)
		}
		st := ix.Stats()
		if wk == 1 {
			ref, refStats = buf.Bytes(), st
			// Children per cell times cells is the level's count before
			// merging; the case is only worth having if merges happen.
			merging := 0
			for l := 1; l < len(st.CellsPerLevel); l++ {
				before := st.ActualCandidates[l] * float64(st.CellsPerLevel[l-1])
				if int(before+0.5) > st.CellsPerLevel[l] {
					merging++
				}
			}
			if merging < 2 {
				t.Fatalf("cells merged at %d levels, want at least 2: %v", merging, st.CellsPerLevel)
			}
			continue
		}
		if !bytes.Equal(ref, buf.Bytes()) {
			t.Errorf("serialized index differs between 1 and %d workers", wk)
		}
		if st.LPCalls != refStats.LPCalls || !slices.Equal(st.CellsPerLevel, refStats.CellsPerLevel) {
			t.Errorf("workers=%d: LPCalls %d, cells %v; 1 worker: %d, %v",
				wk, st.LPCalls, st.CellsPerLevel, refStats.LPCalls, refStats.CellsPerLevel)
		}
	}
}

// TestParallelExtensionDeterminism covers ExtendTau's parallel path: copies
// of one index built with different worker counts must materialize
// identical deeper levels, and answer the same deep query alike.
func TestParallelExtensionDeterminism(t *testing.T) {
	data := datagen.Generate(datagen.IND, 50, 3, 9)
	var ref []int
	for _, wk := range []int{1, 8} {
		ix, err := Build(data, 2, WithWorkers(wk))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.ExtendTau(5); err != nil {
			t.Fatal(err)
		}
		top, err := ix.TopK([]float64{0.3, 0.3, 0.4}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if wk == 1 {
			ref = top
			continue
		}
		for i := range ref {
			if top[i] != ref[i] {
				t.Fatalf("workers=%d: extended top-5 = %v, want %v", wk, top, ref)
			}
		}
	}
}

// TestConcurrentReadersWithWriter exercises the documented concurrency
// contract under the race detector: queries run from many goroutines at
// once, holding no lock, while a writer inserts and deepens the index. Each
// write publishes a new version; the filteredID memo of each version is
// built by whichever reader needs it first.
func TestConcurrentReadersWithWriter(t *testing.T) {
	data := datagen.Generate(datagen.IND, 40, 3, 11)
	ix, err := Build(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	ctx := context.Background()
	readers := 10
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := []float64{0.2, 0.3, 0.5}
			for i := 0; i < 30; i++ {
				k := 1 + (i % ix.Tau()) // τ only grows
				switch g % 5 {
				case 0:
					if _, err := ix.TopKContext(ctx, w, k); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := ix.KSPRContext(ctx, k, i%40); err != nil {
						t.Error(err)
					}
				case 2:
					if _, err := ix.UTKContext(ctx, k, []float64{0.2, 0.2}, []float64{0.4, 0.4}); err != nil {
						t.Error(err)
					}
				case 3:
					if _, err := ix.MaxRankContext(ctx, i%40); err != nil {
						t.Error(err)
					}
				case 4: // with UTK and kSPR, the readers of the rows column
					if _, err := ix.ORUContext(ctx, k, w, 6); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := ix.Insert([]float64{0.9, 0.9, 0.9}); err != nil {
				t.Error(err)
			}
		}
		if err := ix.ExtendTau(5); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	// The index must still answer consistently after the churn.
	top, err := ix.TopK([]float64{0.2, 0.3, 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("top-5 after concurrent churn = %v", top)
	}
}

// TestAlongsideFailurePublishesNothing: when alongside fails (the store's
// WAL write or fsync), the rebuilt version is dropped with its ids. The
// index serializes to the bytes it had before, and the next insert receives
// the id the failed batch handed out.
func TestAlongsideFailurePublishesNothing(t *testing.T) {
	ix, err := Build(datagen.Generate(datagen.IND, 200, 3, 4), 3)
	if err != nil {
		t.Fatal(err)
	}
	before := writeIndex(t, ix)
	fail := errors.New("log write failed")
	out, bs, err := ix.InsertBatchAlongside([][]float64{{0.97, 0.96, 0.95}},
		func([]InsertResult) error { return fail })
	if !errors.Is(err, fail) || bs.Accepted != 1 || out[0].ID < 0 {
		t.Fatalf("failed batch: %+v %+v %v", out, bs, err)
	}
	if !bytes.Equal(writeIndex(t, ix), before) {
		t.Fatal("a batch whose alongside failed was published")
	}
	id, err := ix.Insert([]float64{0.96, 0.97, 0.95})
	if err != nil || id != out[0].ID {
		t.Fatalf("next insert: id %d (%v), want %d", id, err, out[0].ID)
	}
}

// TestPublishScheduleEqualsBuild runs Insert → ExtendTau → InsertBatch
// (a fresh option, a duplicate and a dominated record) through the publish
// path. Every version it replaces keeps its bytes, and the last one, after
// a WriteTo/ReadIndex round trip, is byte for byte the PBA⁺ build over its
// pool with the dataset ids carried.
func TestPublishScheduleEqualsBuild(t *testing.T) {
	ix, err := Build(datagen.Generate(datagen.IND, 300, 3, 6), 3)
	if err != nil {
		t.Fatal(err)
	}
	first, firstBytes := ix.cur.Load(), writeIndex(t, ix)
	id, err := ix.Insert([]float64{0.97, 0.96, 0.95})
	if err != nil || id < 300 {
		t.Fatalf("Insert: id %d, %v", id, err)
	}
	if err := ix.ExtendTau(4); err != nil || ix.Tau() != 4 {
		t.Fatalf("ExtendTau(4): τ = %d, %v", ix.Tau(), err)
	}
	res, bs := ix.InsertBatch([][]float64{{0.99, 0.2, 0.9}, {0.97, 0.96, 0.95}, {0.01, 0.01, 0.01}})
	if bs.Accepted != 1 || res[0].ID != id+1 || res[1].ID != id || res[2].ID != -1 {
		t.Fatalf("InsertBatch: %+v, %+v", res, bs)
	}
	if !bytes.Equal(first.inner.AppendBinary(nil), firstBytes) {
		t.Fatal("a write changed the version it replaced")
	}
	back, err := ReadIndex(bytes.NewReader(writeIndex(t, ix)))
	if err != nil {
		t.Fatal(err)
	}
	in := ix.cur.Load().inner
	pool, err := index.Build(in.Pts, index.Config{Algorithm: index.PBAPlus, Tau: in.Tau, SkipFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	pool.OrigIDs = slices.Clone(in.OrigIDs)
	pool.Stats.InputOptions = in.Stats.InputOptions
	if !bytes.Equal(writeIndex(t, back), pool.AppendBinary(nil)) {
		t.Fatal("the published index differs from the PBA⁺ build over its pool")
	}
}

// TestContextCancellation verifies that an already-canceled context aborts
// every context-aware query variant with the context's error.
func TestContextCancellation(t *testing.T) {
	data := datagen.Generate(datagen.IND, 40, 3, 3)
	ix, err := Build(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := []float64{0.2, 0.3, 0.5}
	if _, err := ix.KSPRContext(ctx, 3, 0); err != context.Canceled {
		t.Errorf("KSPRContext: %v", err)
	}
	if _, err := ix.UTKContext(ctx, 3, []float64{0.2, 0.2}, []float64{0.4, 0.4}); err != context.Canceled {
		t.Errorf("UTKContext: %v", err)
	}
	if _, err := ix.ORUContext(ctx, 2, w, 3); err != context.Canceled {
		t.Errorf("ORUContext: %v", err)
	}
	if _, err := ix.WhyNotContext(ctx, 0, w, 2); err != context.Canceled {
		t.Errorf("WhyNotContext: %v", err)
	}
	if _, err := ix.TopKContext(ctx, w, 3); err != context.Canceled {
		t.Errorf("TopKContext: %v", err)
	}
	if _, err := ix.MaxRankContext(ctx, 0); err != context.Canceled {
		t.Errorf("MaxRankContext: %v", err)
	}
}

// TestSentinelErrors pins the typed error contract of the redesigned API.
func TestSentinelErrors(t *testing.T) {
	data := datagen.Generate(datagen.IND, 30, 3, 7)
	ix, err := Build(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ix.TopKContext(ctx, []float64{0.9, 0.3, 0.1}, 2); !errors.Is(err, ErrInvalidWeights) {
		t.Errorf("non-normalized weights: %v", err)
	}
	if _, err := ix.TopK([]float64{0.5, 0.5}, 2); !errors.Is(err, ErrInvalidWeights) {
		t.Errorf("short weights: %v", err)
	}
	// A query deeper than τ → ErrBeyondTau, with or without the dataset.
	if _, err := ix.TopKContext(ctx, []float64{0.2, 0.3, 0.5}, 4); !errors.Is(err, ErrBeyondTau) {
		t.Errorf("query past τ: %v", err)
	}
	// Deepening an index without full data → ErrNeedsFullData.
	nf, err := Build(data, 2, WithoutFullData())
	if err != nil {
		t.Fatal(err)
	}
	if err := nf.ExtendTau(5); !errors.Is(err, ErrNeedsFullData) {
		t.Errorf("ExtendTau without data: %v", err)
	}
	// The refused query changed nothing: inserts still land.
	if _, err := ix.Insert([]float64{0.8, 0.8, 0.8}); err != nil {
		t.Errorf("insert after a refused deep query: %v", err)
	}
}

// TestRegionFeasible covers the Region.Feasible helper on query output and
// on caller-tightened regions.
func TestRegionFeasible(t *testing.T) {
	ix := buildHotels(t)
	res, err := ix.KSPR(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("expected kSPR regions")
	}
	for i, r := range res.Regions {
		if !r.Feasible() {
			t.Errorf("query region %d reported infeasible", i)
		}
	}
	if !(Region{}).Feasible() {
		t.Error("empty region (whole simplex) reported infeasible")
	}
	// Two contradictory halfspaces: x <= 0.1 and x >= 0.9.
	bad := Region{Halfspaces: []Halfspace{
		{A: []float64{1}, B: 0.1},
		{A: []float64{-1}, B: -0.9},
	}}
	if bad.Feasible() {
		t.Error("contradictory region reported feasible")
	}
}
