package index

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Randomized equivalence: every per-item observable of the batch paths —
// ranked options, QueryStats, reached level, chain key — must be identical
// to running the single-query path per item, across mixed cells, duplicate
// vectors, and k both inside and beyond the materialized depth.

func batchFixture(t *testing.T, seed int64, n, d, tau int) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return buildOrFail(t, randData(rng, n, d), Config{Algorithm: PBAPlus, Tau: tau})
}

// batchPoints returns nq scattered reduced weights with a run of exact
// duplicates at the front, so grouped execution sees both collapse and
// fan-out.
func batchPoints(rng *rand.Rand, nq, dim int) [][]float64 {
	pts := make([][]float64, nq)
	for i := range pts {
		pts[i] = randReduced(rng, dim)
	}
	for i := 1; i < nq/4; i++ {
		pts[i] = pts[0]
	}
	return pts
}

func TestTopKBatchMatchesSingle(t *testing.T) {
	for _, tc := range []struct {
		seed      int64
		n, d, tau int
	}{
		{101, 150, 3, 4},
		{102, 90, 4, 3},
		{103, 60, 2, 5},
	} {
		ix := batchFixture(t, tc.seed, tc.n, tc.d, tc.tau)
		rng := rand.New(rand.NewSource(tc.seed + 1))
		pts := batchPoints(rng, 48, ix.RDim())
		for _, k := range []int{1, 2, tc.tau, tc.tau + 2} {
			// Past τ both paths refuse until ExtendTau deepens the index.
			if k > ix.Tau {
				if _, err := ix.TopKBatchCtx(context.Background(), pts, k, true); err != ErrBeyondTau {
					t.Fatalf("d=%d k=%d: batch err %v, want ErrBeyondTau", tc.d, k, err)
				}
				if err := ix.ExtendTau(k); err != nil {
					t.Fatal(err)
				}
			}
			wantOut := make([][]int32, len(pts))
			wantStats := make([]QueryStats, len(pts))
			for i, x := range pts {
				_, out, st, err := ix.TopKCtx(context.Background(), x, k)
				if err != nil {
					t.Fatal(err)
				}
				wantOut[i], wantStats[i] = out, st
			}
			bt, err := ix.TopKBatchCtx(context.Background(), pts, k, true)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range pts {
				if !slices.Equal(bt.Outs[i], wantOut[i]) {
					t.Fatalf("d=%d k=%d item %d: batch options %v != single %v",
						tc.d, k, i, bt.Outs[i], wantOut[i])
				}
				if bt.Stats[i] != wantStats[i] {
					t.Fatalf("d=%d k=%d item %d: batch stats %+v != single %+v",
						tc.d, k, i, bt.Stats[i], wantStats[i])
				}
				if bt.Levels[i] != len(wantOut[i]) {
					t.Fatalf("d=%d k=%d item %d: level %d != len(out) %d",
						tc.d, k, i, bt.Levels[i], len(wantOut[i]))
				}
				key, _, level := ix.Locate(x, k)
				if bt.Keys[i] != key || bt.Levels[i] != level {
					t.Fatalf("d=%d k=%d item %d: batch key/level %x/%d != Locate %x/%d",
						tc.d, k, i, bt.Keys[i], bt.Levels[i], key, level)
				}
			}
		}
	}
}

func TestLocateBatchMatchesSingle(t *testing.T) {
	ix := batchFixture(t, 110, 130, 3, 4)
	rng := rand.New(rand.NewSource(111))
	pts := batchPoints(rng, 40, ix.RDim())
	// 9 > τ exercises clamping from above; k <= 0 must yield the level-0
	// empty-chain key like Locate, not a panic.
	for _, k := range []int{-1, 0, 1, 3, 4, 9} {
		keys, levels := ix.LocateBatch(pts, k)
		for i, x := range pts {
			key, _, level := ix.Locate(x, k)
			if keys[i] != key || levels[i] != level {
				t.Fatalf("k=%d item %d: LocateBatch %x/%d != Locate %x/%d",
					k, i, keys[i], levels[i], key, level)
			}
		}
	}
}

// TestBatchNonFiniteVector: a NaN reduced vector (rejected at the public
// boundary, but reachable through the internal API) must not derail the
// walk: every argmax is seeded with a real child, so the NaN item descends
// like the single-query paths do and its neighbors stay exact.
func TestBatchNonFiniteVector(t *testing.T) {
	ix := batchFixture(t, 160, 120, 3, 4)
	nan := make([]float64, ix.RDim())
	for i := range nan {
		nan[i] = math.NaN()
	}
	// Singleton batch: exercises the scalar argmax scan directly.
	bt, err := ix.TopKBatchCtx(context.Background(), [][]float64{nan}, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	_, out, st, err := ix.TopKCtx(context.Background(), nan, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bt.Outs[0], out) || bt.Stats[0] != st {
		t.Fatalf("singleton NaN batch %v/%+v != single %v/%+v", bt.Outs[0], bt.Stats[0], out, st)
	}
	key, _, level := ix.Locate(nan, 4)
	if bt.Keys[0] != key || bt.Levels[0] != level {
		t.Fatalf("singleton NaN key/level %x/%d != Locate %x/%d", bt.Keys[0], bt.Levels[0], key, level)
	}
	if _, _, _, _, err := ix.LocateTopK(context.Background(), nan, 4, nil); err != nil {
		t.Fatal(err)
	}
	// Mixed batch: the NaN item rides along without perturbing finite items.
	rng := rand.New(rand.NewSource(161))
	pts := batchPoints(rng, 16, ix.RDim())
	pts[7] = nan
	mixed, err := ix.TopKBatchCtx(context.Background(), pts, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range pts {
		if i == 7 {
			if len(mixed.Outs[i]) != mixed.Levels[i] {
				t.Fatalf("NaN item: len(out) %d != level %d", len(mixed.Outs[i]), mixed.Levels[i])
			}
			continue
		}
		_, want, wantSt, err := ix.TopKCtx(context.Background(), x, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(mixed.Outs[i], want) || mixed.Stats[i] != wantSt {
			t.Fatalf("item %d alongside NaN: batch %v != single %v", i, mixed.Outs[i], want)
		}
	}
}

func TestLocateTopKMatchesSingle(t *testing.T) {
	ix := batchFixture(t, 115, 130, 3, 4)
	rng := rand.New(rand.NewSource(116))
	var buf [16]int32
	for i := 0; i < 40; i++ {
		x := randReduced(rng, ix.RDim())
		for _, k := range []int{1, 2, 4, 9} {
			key, level, res, st, err := ix.LocateTopK(context.Background(), x, k, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			wantKey, _, wantLevel := ix.Locate(x, k)
			if key != wantKey || level != wantLevel {
				t.Fatalf("k=%d: LocateTopK key/level %x/%d != Locate %x/%d",
					k, key, level, wantKey, wantLevel)
			}
			if k > ix.Tau {
				if _, _, _, err := ix.TopKCtx(context.Background(), x, k); err != ErrBeyondTau {
					t.Fatalf("k=%d: TopKCtx err %v, want ErrBeyondTau", k, err)
				}
			} else {
				topKey, out, wantSt, err := ix.TopKCtx(context.Background(), x, k)
				if err != nil {
					t.Fatal(err)
				}
				if topKey != key {
					t.Fatalf("k=%d: TopKCtx key %x != LocateTopK %x", k, topKey, key)
				}
				if !slices.Equal(res, out) {
					t.Fatalf("k=%d: LocateTopK options %v != TopKCtx %v", k, res, out)
				}
				if st != wantSt {
					t.Fatalf("k=%d: LocateTopK stats %+v != TopKCtx %+v", k, st, wantSt)
				}
			}
		}
	}
}

func TestKSPRBatchMatchesSingle(t *testing.T) {
	ix := batchFixture(t, 120, 130, 3, 4)
	// Focals that appear in the materialized levels plus a couple that may
	// not; heavy duplication models skewed (popular-option) traffic.
	var focals []int32
	for _, id := range ix.Levels[1] {
		focals = append(focals, ix.Cells[id].Opt)
	}
	focals = append(focals, focals[0], focals[0], 3, 7, focals[0], 3)
	out, err := ix.KSPRBatchCtx(context.Background(), 4, focals)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range focals {
		want, err := ix.KSPRCtx(context.Background(), 4, f)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out[i].Cells, want.Cells) || out[i].Stats != want.Stats {
			t.Fatalf("item %d (focal %d): batch %+v != single %+v", i, f, out[i], want)
		}
	}
	// A batch holds no dedupe: every item, repeated focal or not, is its own
	// result.
	if dup := len(focals) - 6; focals[dup] != focals[0] || out[dup] == out[0] {
		t.Fatal("a repeated focal shares its first occurrence's result")
	}
}

// TestTopKBatchCancellation: a mid-batch cancellation surfaces the context
// error with per-item partials. Items are walked in order, so the items
// before the one that saw the cancellation hold their full answers, that
// item holds a prefix of its answer, and every later item is left zero.
func TestTopKBatchCancellation(t *testing.T) {
	ix := batchFixture(t, 130, 150, 3, 4)
	rng := rand.New(rand.NewSource(131))
	pts := batchPoints(rng, 32, ix.RDim())
	full, err := ix.TopKBatchCtx(context.Background(), pts, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	// Every item polls on its first visit, so the tenth poll trips within
	// the first ten items and leaves later ones unwalked.
	ctx := &trippingCtx{Context: context.Background(), limit: 10}
	part, err := ix.TopKBatchCtx(ctx, pts, 4, true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	trip := 0
	for trip < len(pts) && slices.Equal(part.Outs[trip], full.Outs[trip]) &&
		part.Levels[trip] == full.Levels[trip] && part.Stats[trip] == full.Stats[trip] &&
		part.Keys[trip] == full.Keys[trip] {
		trip++
	}
	if trip == 0 || trip >= len(pts)-1 {
		t.Fatalf("trip at item %d of %d, want one strictly inside the batch", trip, len(pts))
	}
	n := len(part.Outs[trip])
	if n >= 4 || !slices.Equal(part.Outs[trip], full.Outs[trip][:n]) || part.Levels[trip] != n {
		t.Fatalf("tripping item %d: partial %v at level %d is not a proper prefix of %v",
			trip, part.Outs[trip], part.Levels[trip], full.Outs[trip])
	}
	if v := part.Stats[trip].VisitedCells; v < 1 || v > full.Stats[trip].VisitedCells {
		t.Fatalf("tripping item %d: %d visits, want 1..%d", trip, v, full.Stats[trip].VisitedCells)
	}
	for i := trip + 1; i < len(pts); i++ {
		if part.Levels[i] != 0 || len(part.Outs[i]) != 0 || part.Stats[i] != (QueryStats{}) {
			t.Fatalf("item %d after the trip: level %d, options %v, stats %+v; want all zero",
				i, part.Levels[i], part.Outs[i], part.Stats[i])
		}
	}
}

func TestTopKBatchEmpty(t *testing.T) {
	ix := batchFixture(t, 140, 60, 3, 3)
	bt, err := ix.TopKBatchCtx(context.Background(), nil, 3, true)
	if err != nil || len(bt.Outs) != 0 || len(bt.Keys) != 0 {
		t.Fatalf("empty batch: %+v, err=%v", bt, err)
	}
}

// TestBatchSteadyStateAllocs pins the allocation behavior: a top-k batch
// allocates its answer arrays (a handful of slices for the whole batch,
// however many items) and nothing per item, level or visited cell.
func TestBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random; the pin runs in the non-race test pass")
	}
	ix := batchFixture(t, 150, 120, 3, 4)
	rng := rand.New(rand.NewSource(151))
	const nq = 64
	pts := batchPoints(rng, 512, ix.RDim())
	focals := make([]int32, nq)
	base := qbFocalsT(t, ix, 8)
	for i := range focals {
		focals[i] = base[i%len(base)]
	}
	ctx := context.Background()

	cases := []struct {
		name string
		max  float64 // per batch
		run  func()
	}{
		{"TopKBatchCtx_n64", 8, func() {
			if _, err := ix.TopKBatchCtx(ctx, pts[:nq], 4, true); err != nil {
				t.Fatal(err)
			}
		}},
		{"TopKBatchCtx_n512", 8, func() {
			if _, err := ix.TopKBatchCtx(ctx, pts, 4, true); err != nil {
				t.Fatal(err)
			}
		}},
		{"KSPRBatchCtx", nq + 1, func() { // one result per item, and the slice of them
			if _, err := ix.KSPRBatchCtx(ctx, 4, focals); err != nil {
				t.Fatal(err)
			}
		}},
		{"LocateTopK", 0, func() {
			var buf [8]int32
			if _, _, _, _, err := ix.LocateTopK(ctx, pts[0], 4, buf[:0]); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // warm the pools
			if got := testing.AllocsPerRun(50, tc.run); got > tc.max {
				t.Errorf("%s allocates %.1f per batch, want <= %.0f", tc.name, got, tc.max)
			}
		})
	}
}

// qbFocalsT mirrors qbFocals for tests: filtered ids present in the
// materialized levels.
func qbFocalsT(t *testing.T, ix *Index, n int) []int32 {
	t.Helper()
	var out []int32
	for l := 1; l <= ix.Tau && len(out) < n; l++ {
		for _, id := range ix.Levels[l] {
			out = append(out, ix.Cells[id].Opt)
			if len(out) >= n {
				break
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no focal options")
	}
	return out
}
