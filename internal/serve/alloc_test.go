//go:build !race

package serve

import (
	"context"
	"testing"

	tlx "tlevelindex"
)

// TestDispatchAllocsRecorderOff pins the steady-state query path with the
// flight recorder disabled, where tracing must add zero allocations (the
// untraced path is a single context lookup). Neither family is cached. A
// MaxRank dispatch reads the option→cells column every time, at three: the
// MaxRankResult, the result body and the answer the item points into. A
// top-k dispatch walks every time, at six: the reduced weights, the rank
// buffer, the exported options and the TopKResult of the walk, then the
// result body and the answer. Excluded under -race, which inflates
// allocation counts.
func TestDispatchAllocsRecorderOff(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(ix, Config{TraceBuffer: -1})
	if h.rec != nil {
		t.Fatal("negative TraceBuffer did not disable the recorder")
	}
	focal := 0
	ctx := context.Background()
	for _, c := range []struct {
		q      QueryRequest
		allocs float64
	}{
		{QueryRequest{Family: "maxrank", Focal: &focal}, 3},
		{QueryRequest{Family: "topk", W: []float64{0.18, 0.82}, K: 2}, 6},
	} {
		// Warm the pools and run the hot-cell sketch past its first slot
		// allocation so the loop below measures only the steady state.
		for i := 0; i < 200; i++ {
			if it := h.dispatch(ctx, &c.q); it.Error != "" {
				t.Fatal(it.Error)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if it := h.dispatch(ctx, &c.q); it.Cached {
				t.Fatalf("%s: served from the cache", c.q.Family)
			}
		})
		if allocs > c.allocs {
			t.Fatalf("%s dispatch with recorder off = %.2f allocs/op, want <= %v", c.q.Family, allocs, c.allocs)
		}
	}
}
