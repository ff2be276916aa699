package tlevelindex

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"tlevelindex/datagen"
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
		if st.LPCalls != refStats.LPCalls || st.VerdictEntries != refStats.VerdictEntries {
			t.Errorf("workers=%d: LPCalls %d, VerdictEntries %d; 1 worker: %d, %d",
				wk, st.LPCalls, st.VerdictEntries, refStats.LPCalls, refStats.VerdictEntries)
		}
	}
}

// TestParallelExtensionDeterminism covers the on-demand extension path: the
// same deep query against copies of one index built with different worker
// counts must materialize identical deeper levels.
func TestParallelExtensionDeterminism(t *testing.T) {
	data := datagen.Generate(datagen.IND, 50, 3, 9)
	var ref []int
	for _, wk := range []int{1, 8} {
		ix, err := Build(data, 2, WithWorkers(wk))
		if err != nil {
			t.Fatal(err)
		}
		top, err := ix.TopK([]float64{0.3, 0.3, 0.4}, 5) // k > τ: extends
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
// contract under the race detector: queries within the materialized depth
// are safe from many goroutines at once, while mutations (Insert,
// ExtendTau, deep queries) take a write lock — the same discipline the
// serve package uses. The shared filteredID memo is the subtle part: every
// reader exercises it concurrently.
func TestConcurrentReadersWithWriter(t *testing.T) {
	data := datagen.Generate(datagen.IND, 40, 3, 11)
	ix, err := Build(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.RWMutex
	var wg sync.WaitGroup
	ctx := context.Background()
	readers := 10
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := []float64{0.2, 0.3, 0.5}
			for i := 0; i < 30; i++ {
				mu.RLock()
				k := 1 + (i % ix.MaxMaterializedLevel())
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
				mu.RUnlock()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			mu.Lock()
			if _, err := ix.Insert([]float64{0.9, 0.9, 0.9}); err != nil {
				t.Error(err)
			}
			mu.Unlock()
		}
		mu.Lock()
		if err := ix.ExtendTau(5); err != nil {
			t.Error(err)
		}
		mu.Unlock()
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
	// Deep query on an index without full data → ErrNeedsFullData.
	nf, err := Build(data, 2, WithoutFullData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nf.TopKContext(ctx, []float64{0.2, 0.3, 0.5}, 5); !errors.Is(err, ErrNeedsFullData) {
		t.Errorf("deep query without data: %v", err)
	}
	// Insert after extension → ErrExtended.
	if _, err := ix.TopK([]float64{0.2, 0.3, 0.5}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert([]float64{0.8, 0.8, 0.8}); !errors.Is(err, ErrExtended) {
		t.Errorf("insert after extension: %v", err)
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
