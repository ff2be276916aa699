//go:build !race

package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	tlx "tlevelindex"
)

// TestDispatchAllocsRecorderOff pins the steady-state query path with the
// flight recorder disabled, where tracing must add zero allocations (the
// untraced path is a single context lookup). A MaxRank dispatch reads the
// option→cells column, at three: the MaxRankResult, the result body and the
// stats the item points to. A top-k dispatch walks its cell chain, at six:
// the reduced weights, the rank buffer, the exported options and the
// TopKResult of the walk, then the result body and the stats. Excluded
// under -race, which inflates allocation counts.
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
	out := make([]queryItem, 1)
	for _, c := range []struct {
		q      QueryRequest
		allocs float64
	}{
		{QueryRequest{Family: "maxrank", Focal: &focal}, 3},
		{QueryRequest{Family: "topk", W: []float64{0.18, 0.82}, K: 2}, 6},
	} {
		qs := []QueryRequest{c.q}
		// Warm the pools and run the hot-cell sketch past its first slot
		// allocation so the loop below measures only the steady state.
		for i := 0; i < 200; i++ {
			if h.dispatchBatch(ctx, qs, out); out[0].Error != "" {
				t.Fatal(out[0].Error)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if h.dispatchBatch(ctx, qs, out); out[0].Error != "" {
				t.Fatal(out[0].Error)
			}
		})
		if allocs > c.allocs {
			t.Fatalf("%s dispatch with recorder off = %.2f allocs/op, want <= %v", c.q.Family, allocs, c.allocs)
		}
	}
}

// TestQueryBatchAllocsPerItem pins a 64-item top-k /v1/query/batch envelope
// through the whole handler, recorder off, at ≤ 7 allocations an item in
// steady state: the six of a top-k dispatch (above) plus the envelope's own
// — the body read, the query and float slabs the decoder hands out, the
// item slices, the response — shared by 64 items. encoding/json's decode and
// per-item Encode put it at 9.6. Excluded under -race, which inflates
// allocation counts.
func TestQueryBatchAllocsPerItem(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	mux := NewHandler(ix, Config{TraceBuffer: -1}).Mux()
	const items = 64
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := range items {
		if i > 0 {
			sb.WriteByte(',')
		}
		w0 := 0.1 + 0.0125*float64(i)
		fmt.Fprintf(&sb, `{"family":"topk","w":[%g,%g],"k":%d}`, w0, 1-w0, 1+i%3)
	}
	sb.WriteString(`]}`)
	body := sb.String()
	rd := strings.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/query/batch", rd)
	var w *httptest.ResponseRecorder
	run := func() {
		rd.Reset(body)
		w = httptest.NewRecorder()
		mux.ServeHTTP(w, req)
	}
	for range 100 {
		run()
	}
	if w.Code != http.StatusOK || strings.Contains(w.Body.String(), `"error"`) || strings.Count(w.Body.String(), `"options"`) != items {
		t.Fatalf("batch answered %d %s", w.Code, w.Body)
	}
	per := testing.AllocsPerRun(100, run) / items
	t.Logf("64-item top-k batch: %.2f allocs/item", per)
	if per > 7 {
		t.Fatalf("64-item top-k batch = %.2f allocs/item, want <= 7", per)
	}
}
