package index

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"tlevelindex/internal/geom"
)

// trippingCtx reports context.Canceled starting from the limit-th Err poll.
// It lets a test cancel a traversal mid-flight deterministically, without
// goroutines or timing.
type trippingCtx struct {
	context.Context
	polls, limit int
}

func (c *trippingCtx) Err() error {
	c.polls++
	if c.polls >= c.limit {
		return context.Canceled
	}
	return nil
}

func cancelFixture(t *testing.T) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	return buildOrFail(t, randData(rng, 120, 3), Config{Algorithm: PBAPlus, Tau: 4})
}

// TestKSPRCtxPartialResult: kSPR is a column lookup that polls ctx once,
// before it reads. A canceled context surfaces its error with a non-nil,
// empty result that read nothing; a context that is live at that poll gets
// the whole answer.
func TestKSPRCtxPartialResult(t *testing.T) {
	ix := cancelFixture(t)
	ctx := &trippingCtx{Context: context.Background(), limit: 1}
	res, err := ix.KSPRCtx(ctx, 4, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled KSPRCtx returned nil result")
	}
	if res.Stats.VisitedCells != 0 || len(res.Cells) != 0 {
		t.Errorf("canceled kSPR read %d entries (%d cells), want none", res.Stats.VisitedCells, len(res.Cells))
	}
	ctx = &trippingCtx{Context: context.Background(), limit: 2}
	res, err = ix.KSPRCtx(ctx, 4, 0)
	if want := ix.KSPR(4, 0); err != nil || !slices.Equal(res.Cells, want.Cells) || res.Stats != want.Stats {
		t.Errorf("kSPR live at its poll = %+v (err %v), want %+v", res, err, want)
	}
}

func TestUTKCtxPartialResult(t *testing.T) {
	ix := cancelFixture(t)
	ctx := &trippingCtx{Context: context.Background(), limit: 2}
	res, err := ix.UTKCtx(ctx, 3, geom.NewBox([]float64{0.1, 0.1}, []float64{0.6, 0.6}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled UTKCtx returned nil result")
	}
	if res.Stats.VisitedCells == 0 {
		t.Error("partial UTK stats are zero; want work recorded before cancellation")
	}
}

func TestORUCtxPartialResult(t *testing.T) {
	ix := cancelFixture(t)
	ctx := &trippingCtx{Context: context.Background(), limit: 2}
	res, err := ix.ORUCtx(ctx, 4, []float64{0.3, 0.3}, 30)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled ORUCtx returned nil result")
	}
	if res.Stats.VisitedCells == 0 {
		t.Error("partial ORU stats are zero; want work recorded before cancellation")
	}
}

// TestSteadyStateAllocs pins the allocation behavior of the hot query paths
// at k ≤ τ: after pool warmup each query may allocate
// only its answer (O(result) — a handful of slices), never per-visited-cell
// scratch.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random; the pin runs in the non-race test pass")
	}
	rng := rand.New(rand.NewSource(92))
	ix := buildOrFail(t, randData(rng, 80, 3), Config{Algorithm: PBAPlus, Tau: 4})
	ctx := context.Background()
	focal := int32(0)
	box := geom.NewBox([]float64{0.25, 0.25}, []float64{0.4, 0.4})
	x := []float64{0.3, 0.3}

	cases := []struct {
		name string
		max  float64
		run  func()
	}{
		{"KSPRCtx", 1, func() { // the result; Cells is a window of the column
			if _, err := ix.KSPRCtx(ctx, 4, focal); err != nil {
				t.Fatal(err)
			}
		}},
		{"TopKCtx", 2, func() {
			if _, _, _, err := ix.TopKCtx(ctx, x, 4); err != nil {
				t.Fatal(err)
			}
		}},
		{"UTKCtx", 4, func() { // the result, its partitions, one slab of their result sets, the options
			if _, err := ix.UTKCtx(ctx, 3, box); err != nil {
				t.Fatal(err)
			}
		}},
		{"ORUCtx", 8, func() {
			if _, err := ix.ORUCtx(ctx, 3, x, 6); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // warm the scratch pool
			if got := testing.AllocsPerRun(50, tc.run); got > tc.max {
				t.Errorf("%s allocates %.1f per run, want <= %.0f (O(result) only)",
					tc.name, got, tc.max)
			}
		})
	}
}
