//go:build !race

package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/internal/store"
)

// TestDispatchAllocsRecorderOff pins the steady-state query path with the
// flight recorder disabled, where tracing must add zero allocations (the
// untraced path is a single context lookup), on a memory-only handler and
// on a store-backed one: Backend.Serving hands back a release bound once,
// so asking a store for its (index, LSN) pair allocates nothing either. A
// MaxRank dispatch reads the option→cells column, at two: the
// MaxRankResult and the result body. A top-k dispatch walks its cell chain,
// at two: the exported options and the TopKResult, which is its own result
// body; the reduced weights are a window of the request's, the walk's ranks
// sit on the stack, and the stats live in the item. Excluded under -race,
// which inflates allocation counts.
func TestDispatchAllocsRecorderOff(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: t.TempDir(), Logger: testLogger(t)}, func() (*tlx.Index, error) {
		return tlx.Build(hotels, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	focal := 0
	ctx := context.Background()
	out := make([]queryItem, 1)
	for _, hc := range []struct {
		name string
		h    *Handler
	}{
		{"memory", NewHandler(ix, Config{TraceBuffer: -1})},
		{"store", NewStoreHandler(st, Config{TraceBuffer: -1})},
	} {
		h := hc.h
		if h.rec != nil {
			t.Fatal("negative TraceBuffer did not disable the recorder")
		}
		for _, c := range []struct {
			q      QueryRequest
			allocs float64
		}{
			{QueryRequest{Family: "maxrank", Focal: &focal}, 2},
			{QueryRequest{Family: "topk", W: []float64{0.18, 0.82}, K: 2}, 2},
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
			t.Logf("%s %s dispatch: %.2f allocs/op", hc.name, c.q.Family, allocs)
			if allocs > c.allocs {
				t.Fatalf("%s %s dispatch with recorder off = %.2f allocs/op, want <= %v", hc.name, c.q.Family, allocs, c.allocs)
			}
		}
	}
}

// TestQueryBatchAllocsPerItem pins 64-item /v1/query/batch envelopes
// through the whole handler, recorder off, in steady state, per item:
//   - top-k on the hotel index at ≤ 3 allocations and ≤ 210 bytes: the two
//     of a top-k dispatch (above) plus the envelope's own — the request's
//     context, the recorder, the response — shared by 64 items;
//   - UTK on the canonical benchmark index at ≤ 10.5 allocations and ≤ 800
//     bytes: the index's answer (result, partitions, one slab of their
//     result sets, options), the exported one (the same four), and the
//     body with its partition list;
//   - kSPR on that index at ≤ 4.5 allocations and ≤ 9,000 bytes: the
//     index's result, the exported one and its regions, and the body. The
//     response writer's row memo allocates nothing once pooled.
//
// The decoder hands out pooled queries, vectors and items, so the body's
// size costs nothing per request. Excluded under -race, which inflates
// allocation counts.
func TestQueryBatchAllocsPerItem(t *testing.T) {
	hotelIx, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := serveBenchIndex(t)
	const items = 64
	var focals []int
	for f := 0; f < sbN && len(focals) < items; f++ {
		if res, err := ix.KSPR(sbTau, f); err == nil && len(res.Regions) > 0 {
			focals = append(focals, f)
		}
	}
	for _, c := range []struct {
		family   string
		ix       *tlx.Index
		item     func(i int) string
		answer   string // in every item's result
		allocs   float64
		maxBytes float64
	}{
		{"topk", hotelIx, func(i int) string {
			w0 := 0.1 + 0.0125*float64(i)
			return fmt.Sprintf(`{"family":"topk","w":[%g,%g],"k":%d}`, w0, 1-w0, 1+i%3)
		}, `"options"`, 3, 210},
		{"utk", ix, func(i int) string {
			lo0, lo1 := 0.05+0.01*float64(i), 0.6-0.008*float64(i)
			return fmt.Sprintf(`{"family":"utk","lo":[%g,%g],"hi":[%g,%g],"k":%d}`, lo0, lo1, lo0+0.05, lo1+0.05, 1+i%sbTau)
		}, `"partitionTopKSets":[[`, 10.5, 800},
		{"kspr", ix, func(i int) string {
			return fmt.Sprintf(`{"family":"kspr","focal":%d,"k":%d}`, focals[i%len(focals)], sbTau)
		}, `"regions":[{`, 4.5, 9000},
	} {
		mux := NewHandler(c.ix, Config{TraceBuffer: -1}).Mux()
		var sb strings.Builder
		sb.WriteString(`{"queries":[`)
		for i := range items {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(c.item(i))
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
		if w.Code != http.StatusOK || strings.Contains(w.Body.String(), `"error"`) || strings.Count(w.Body.String(), c.answer) != items {
			t.Fatalf("%s batch answered %d %s", c.family, w.Code, w.Body)
		}
		const runs = 100
		per := testing.AllocsPerRun(runs, run) / items
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs * items)
		t.Logf("64-item %s batch: %.2f allocs, %.0f B per item", c.family, per, bytes)
		if per > c.allocs {
			t.Fatalf("64-item %s batch = %.2f allocs/item, want <= %v", c.family, per, c.allocs)
		}
		if bytes > c.maxBytes {
			t.Fatalf("64-item %s batch = %.0f B/item, want <= %v", c.family, bytes, c.maxBytes)
		}
	}
}

// TestDecoderReleasedOnEveryPath: a request hands its decoder back however
// its body was decided — by the subset parser, by encoding/json, or refused
// — and however the handler answered it, so the next request gets the same
// decoder and the pool makes no new one. (A body past 1 MiB drops its
// decoder on purpose, as release says.) One P and no GC make the pool
// deterministic: a put is the next get. Excluded under -race, where
// sync.Pool drops puts at random.
func TestDecoderReleasedOnEveryPath(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	mux := NewHandler(ix, Config{TraceBuffer: -1}).Mux()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	made := 0
	newDecoder := decoderPool.New
	defer func() { decoderPool.New = newDecoder }()
	decoderPool.New = func() any { made++; return newDecoder() }
	over := `{"queries":[` + strings.Repeat(`{"k":1},`, maxBatchQueries) + `{"k":1}]}`
	for _, c := range []struct {
		name, path, body string
		code             int
	}{
		{"subset query", "/v1/query", `{"family":"topk","w":[0.5,0.5],"k":1}`, http.StatusOK},
		{"subset batch", "/v1/query/batch", `{"queries":[{"family":"topk","w":[0.5,0.5],"k":1}]}`, http.StatusOK},
		{"encoding/json query", "/v1/query", `{"family":"top\u006b","w":[0.5,0.5],"k":1}`, http.StatusOK},
		{"encoding/json batch", "/v1/query/batch", `{"queries":[{"family":"top\u006b","w":[0.5,0.5],"k":1}]}`, http.StatusOK},
		{"refused query", "/v1/query", `{"family":`, http.StatusBadRequest},
		{"refused batch", "/v1/query/batch", `{"queries":[`, http.StatusBadRequest},
		{"refused by encoding/json", "/v1/query", `{"family":"top\u006b","k":"1"}`, http.StatusBadRequest},
		{"empty batch", "/v1/query/batch", `{"queries":[]}`, http.StatusBadRequest},
		{"oversized batch", "/v1/query/batch", over, http.StatusBadRequest},
		{"failed item", "/v1/query", `{"family":"nosuch"}`, http.StatusBadRequest},
	} {
		for i := range 20 {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
			if w.Code != c.code {
				t.Fatalf("%s: status %d, want %d: %s", c.name, w.Code, c.code, w.Body)
			}
			if made > 1 {
				t.Fatalf("%s: request %d found the pool empty: a decoder was not released", c.name, i)
			}
		}
	}
}
