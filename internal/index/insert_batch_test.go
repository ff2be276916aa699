package index

import (
	"bytes"
	"math/rand"
	"testing"

	"tlevelindex/internal/geom"
)

// serializeOrFail captures the full binary form of an index; byte equality
// of two serializations is the strongest equivalence the format offers
// (cell ids, level order, adjacency, arenas, everything).
func serializeOrFail(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInsertBatchMatchesSequential: a batch insert must leave the index
// byte-identical to the same options inserted one at a time — same ids,
// same cells, same serialization — while thawing and re-freezing once.
func TestInsertBatchMatchesSequential(t *testing.T) {
	// The insert cache must not show in the result: kept from one call to
	// the next (the sequential side's inserts after its first start warm),
	// never kept, or absent because the index was loaded, not built.
	t.Run("cache kept", func(t *testing.T) { testInsertBatchMatchesSequential(t, false) })
	t.Run("over budget", func(t *testing.T) {
		forceInsertCacheBudget(t, 0)
		testInsertBatchMatchesSequential(t, false)
	})
	t.Run("reloaded", func(t *testing.T) { testInsertBatchMatchesSequential(t, true) })
}

func testInsertBatchMatchesSequential(t *testing.T, reload bool) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		n := 12 + rng.Intn(12)
		d := 2 + rng.Intn(2)
		tau := 2 + rng.Intn(2)
		data := randData(rng, n, d)
		extra := randData(rng, 4+rng.Intn(8), d)
		// Exercise every prefilter: an exact duplicate of the pool, a
		// duplicate of an earlier batch member, and an option dominated by
		// everything (filtered).
		extra = append(extra, append([]float64(nil), data[0]...))
		extra = append(extra, append([]float64(nil), extra[0]...))
		low := make([]float64, d)
		for i := range low {
			low[i] = 1e-6
		}
		extra = append(extra, low)

		cfg := Config{Algorithm: PBAPlus, Tau: tau}
		seq := buildOrFail(t, data, cfg)
		bat := buildOrFail(t, data, cfg)
		if reload {
			for _, ix := range []**Index{&seq, &bat} {
				loaded, err := Read(bytes.NewReader(serializeOrFail(t, *ix)))
				if err != nil {
					t.Fatal(err)
				}
				*ix = loaded
			}
		}
		base := len(bat.Pts)

		wantIDs := make([]int32, len(extra))
		for i, r := range extra {
			id, err := seq.InsertOption(r)
			if err != nil {
				t.Fatalf("trial %d: sequential insert %d: %v", trial, i, err)
			}
			wantIDs[i] = id
		}
		gotIDs, errs, stats := bat.InsertBatch(extra)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("trial %d: batch item %d: %v", trial, i, err)
			}
		}
		for i := range extra {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("trial %d: item %d id: batch %d, sequential %d",
					trial, i, gotIDs[i], wantIDs[i])
			}
		}
		if err := bat.Validate(true); err != nil {
			t.Fatalf("trial %d: post-batch validate: %v", trial, err)
		}
		sb, bb := serializeOrFail(t, seq), serializeOrFail(t, bat)
		if !bytes.Equal(sb, bb) {
			t.Fatalf("trial %d: batch serialization differs from sequential (%d vs %d bytes)",
				trial, len(bb), len(sb))
		}
		if stats.Accepted != len(bat.Pts)-base {
			t.Fatalf("trial %d: stats report %d accepted, pool grew by %d",
				trial, stats.Accepted, len(bat.Pts)-base)
		}
		if stats.Accepted > 0 && stats.FinalizeNS <= 0 {
			t.Fatalf("trial %d: accepted records but no finalize time: %+v", trial, stats)
		}
	}
}

// TestInsertBatchAllFiltered: a batch whose every option is rejected must
// not mutate (or even thaw) the index.
func TestInsertBatchAllFiltered(t *testing.T) {
	ix := buildOrFail(t, hotels, Config{Algorithm: PBAPlus, Tau: 3})
	before := serializeOrFail(t, ix)
	ids, errs, stats := ix.InsertBatch([][]float64{
		{0.01, 0.01}, // dominated by everything
		{0.5},        // wrong dimensionality
		hotels[2],    // exact duplicate
		{0.02, 0.01}, // dominated
	})
	if errs[0] != nil || errs[2] != nil || errs[3] != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if errs[1] == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if ids[0] != -1 || ids[1] != -1 || ids[3] != -1 {
		t.Fatalf("filtered ids = %v", ids)
	}
	if ids[2] < 0 || ix.OrigIDs[ids[2]] != 2 {
		t.Fatalf("duplicate resolved to fid %d", ids[2])
	}
	if stats.Accepted != 0 || stats.ThawNS != 0 || stats.FinalizeNS != 0 {
		t.Fatalf("filtered batch reports work: %+v", stats)
	}
	if !bytes.Equal(before, serializeOrFail(t, ix)) {
		t.Fatal("fully filtered batch changed the index")
	}
}

// TestInsertBatchExtended: an index deepened by ExtendTau takes inserts like
// any other, and answers top-k at its new depth like the brute force over
// the data and the inserted options.
func TestInsertBatchExtended(t *testing.T) {
	ix := buildOrFail(t, hotels, Config{Algorithm: PBAPlus, Tau: 2})
	if err := ix.ExtendTau(3); err != nil {
		t.Fatal(err)
	}
	add := [][]float64{{0.9, 0.9}, {0.8, 0.8}}
	ids, errs, _ := ix.InsertBatch(add)
	for i := range errs {
		if errs[i] != nil || ids[i] < 0 {
			t.Fatalf("item %d: id %d, err %v", i, ids[i], errs[i])
		}
	}
	if err := ix.Validate(true); err != nil {
		t.Fatal(err)
	}
	all := append(append([][]float64(nil), hotels...), add...)
	for _, x := range [][]float64{{0.1}, {0.35}, {0.5}, {0.8}} {
		got, _ := ix.TopK(x, 3)
		want := bruteTopK(all, x, 3)
		for i := range got {
			if gs, ws := geom.Score(ix.Pts[got[i]], x), geom.Score(all[want[i]], x); gs < ws-1e-9 {
				t.Fatalf("x=%v rank %d: score %v, brute force %v", x, i+1, gs, ws)
			}
		}
	}
}
