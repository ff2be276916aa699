//go:build !race

package serve

import (
	"context"
	"testing"

	tlx "tlevelindex"
)

// TestDispatchAllocsRecorderOff pins the steady-state query path with the
// flight recorder disabled: a cache-hit dispatch is one allocation (the item
// points into the cached answer instead of copying it), and tracing must add
// zero when off — the untraced path is a single context lookup. Excluded under -race, which
// inflates allocation counts.
func TestDispatchAllocsRecorderOff(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(ix, Config{TraceBuffer: -1})
	if h.rec != nil {
		t.Fatal("negative TraceBuffer did not disable the recorder")
	}
	q := &QueryRequest{Family: "topk", W: []float64{0.18, 0.82}, K: 2}
	ctx := context.Background()
	// Warm the cache and run the hot-cell sampler past its first slot
	// allocation so the loop below measures only the steady state.
	for i := 0; i < 200; i++ {
		if it := h.dispatch(ctx, q); it.Error != "" {
			t.Fatal(it.Error)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if it := h.dispatch(ctx, q); !it.Cached {
			t.Fatalf("not a cache hit: %+v", it)
		}
	})
	if allocs > 1 {
		t.Fatalf("cache-hit dispatch with recorder off = %.2f allocs/op, want <= 1", allocs)
	}
}
