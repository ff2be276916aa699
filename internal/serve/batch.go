package serve

import (
	"context"
	"net/http"

	tlx "tlevelindex"
	"tlevelindex/internal/cache"
	"tlevelindex/internal/obs"
)

// POST /v1/query/batch: many QueryRequests through one envelope and one
// lock decision. Top-k items are grouped by depth and carried
// through the index's shared-frontier batch traversal (DESIGN.md §18), and
// their cache lookups are batched by cell key, so N same-cell queries cost
// one index visit and N−1 cache hits. Every other family runs through the
// same per-item pipeline as POST /v1/query, just without re-taking the
// lock per item.
//
// The envelope is {"queries": [<QueryRequest>, ...]} in and
// {"results": [<item>, ...]} out, index-aligned with the request. A
// successful item is {"result": ..., "stats": ..., "cached": bool,
// "lsn": n} — the same fields as a /v1/query response; a failed item
// carries {"error": ..., "status": n} with the HTTP status the single-query
// endpoint would have answered, without failing its neighbors.

// maxBatchQueries bounds one envelope; anything larger is a 400. It caps
// the memory one request can pin and keeps a batch's lock hold bounded.
const maxBatchQueries = 1024

// batchRequest is the POST /v1/query/batch body.
type batchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// batchResponseItem is one per-query outcome inside the batch envelope.
type batchResponseItem struct {
	Result any             `json:"result,omitempty"`
	Stats  *queryStatsBody `json:"stats,omitempty"`
	Cached bool            `json:"cached"`
	LSN    uint64          `json:"lsn"`
	Error  string          `json:"error,omitempty"`
	Status int             `json:"status,omitempty"`
}

func batchErrItem(err error) batchResponseItem {
	return batchResponseItem{Error: err.Error(), Status: statusFor(err)}
}

func batchOKItem(result any, stats tlx.QueryStats, cached bool, lsn uint64) batchResponseItem {
	return batchResponseItem{
		Result: result,
		Stats:  &queryStatsBody{stats.VisitedCells, stats.LPCalls},
		Cached: cached,
		LSN:    lsn,
	}
}

// handleQueryBatch is POST /v1/query/batch.
func (h *Handler) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var body batchRequest
	if !decodeBody(w, r, "batch", &body) {
		return
	}
	if len(body.Queries) == 0 {
		badRequest(w, "empty batch")
		return
	}
	if len(body.Queries) > maxBatchQueries {
		badRequest(w, "batch of %d queries exceeds the limit of %d", len(body.Queries), maxBatchQueries)
		return
	}
	for i := range body.Queries {
		body.Queries[i].defaults()
	}
	writeJSON(w, http.StatusOK, struct {
		Results []batchResponseItem `json:"results"`
	}{h.dispatchBatch(r.Context(), body.Queries)})
}

// dispatchBatch validates every item, then runs the whole batch under the
// lock its deepest item requires: one acquisition covers the envelope.
func (h *Handler) dispatchBatch(ctx context.Context, qs []QueryRequest) []batchResponseItem {
	out := make([]batchResponseItem, len(qs))
	specs := make([]*familySpec, len(qs))
	maxDepth := 0
	for i := range qs {
		spec, err := resolve(&qs[i])
		if err != nil {
			out[i] = batchErrItem(err)
			continue
		}
		specs[i] = spec
		maxDepth = max(maxDepth, spec.depth(&qs[i]))
	}
	h.runQuery(maxDepth, func(ix *tlx.Index, lsn uint64) {
		h.runBatchOn(ctx, qs, specs, out, ix, lsn)
	})
	return out
}

// runBatchOn executes every valid item against one serving index. Top-k
// items are pulled out and grouped by depth for the shared batch walk; the
// remaining families reuse the single-query cache-then-traverse path.
func (h *Handler) runBatchOn(ctx context.Context, qs []QueryRequest, specs []*familySpec,
	out []batchResponseItem, ix *tlx.Index, lsn uint64) {
	var topkByK map[int][]int
	for i, spec := range specs {
		if spec == nil {
			continue // already failed validation
		}
		if spec.name == "topk" {
			if topkByK == nil {
				topkByK = make(map[int][]int)
			}
			topkByK[qs[i].K] = append(topkByK[qs[i].K], i)
			continue
		}
		oc, err := h.runOn(ctx, spec, &qs[i], ix, lsn)
		if err != nil {
			out[i] = batchErrItem(err)
			continue
		}
		out[i] = batchOKItem(oc.result, oc.stats, oc.cached, oc.lsn)
	}
	for k, idxs := range topkByK {
		h.runTopKBatch(ctx, qs, idxs, k, out, ix, lsn)
	}
}

// noteItem emits one batch item's child span and trace annotation. Batch
// items share one traversal span (the index's query.topkbatch, parented
// under the envelope), so the per-item spans are markers carrying each
// item's cache status, cell key, and traversal effort rather than timings.
func (h *Handler) noteItem(sc obs.SpanContext, q *QueryRequest, cell uint64,
	cached bool, st tlx.QueryStats, itemErr error) {
	sp := obs.StartSpanIn(sc, "item.topk")
	sp.Err = itemErr
	sp.Set("cached", b2f(cached))
	sp.Set("visitedCells", float64(st.VisitedCells))
	sp.Set("lpCalls", float64(st.LPCalls))
	meta := obs.QueryMeta{Family: "topk", W: q.W, K: q.K, Cell: obs.CellKey(cell),
		Cached: cached, VisitedCells: st.VisitedCells, LPCalls: st.LPCalls}
	h.rec.Annotate(sc.Trace, meta)
	sp.FinishTo(sc.Tracer)
}

// runTopKBatch answers all depth-k top-k items through one shared
// traversal, with the cache consulted in one batched multi-get over the
// located cell keys. Items that land in the same cell chain — the
// clustered-traffic case the batch path exists for — dedupe to one cache
// fill: the first miss publishes the answer, every duplicate reads it back
// as a hit.
func (h *Handler) runTopKBatch(ctx context.Context, qs []QueryRequest, idxs []int, k int,
	out []batchResponseItem, ix *tlx.Index, lsn uint64) {
	ws := make([][]float64, len(idxs))
	for j, i := range idxs {
		ws[j] = qs[i].W
	}
	items, err := ix.TopKBatchContext(ctx, ws, k)
	if err != nil {
		// A batch-level failure (strict depth, cancellation) is what the
		// single-query endpoint would have answered for each of these items.
		for _, i := range idxs {
			out[i] = batchErrItem(err)
		}
		return
	}
	// Batched cache lookup over the cacheable items' cell keys. An item is
	// cacheable exactly when the single-query path would cache it: valid
	// weights and a walk that reached depth k.
	var (
		keys []cache.Key
		vals []any
		oks  []bool
		cpos []int // keys[j] belongs to items[cpos[j]]
	)
	if h.cache != nil {
		for j := range items {
			if items[j].Err == nil && items[j].Level == k {
				keys = append(keys, cache.Key{Family: "topk", Cell: items[j].Key.Sum64(), K: k})
				cpos = append(cpos, j)
			}
		}
		vals = make([]any, len(keys))
		oks = make([]bool, len(keys))
		h.cache.GetMulti(keys, lsn, vals, oks)
	}
	// hit[j]/filled share answers across duplicate keys within the batch.
	hit := make(map[int]int, len(cpos)) // item position -> key position
	for kj, j := range cpos {
		hit[j] = kj
	}
	filled := make(map[cache.Key]*cachedAnswer)
	sc, traced := obs.SpanContextFrom(ctx)
	for j, i := range idxs {
		it := &items[j]
		if it.Err != nil {
			out[i] = batchErrItem(it.Err)
			if traced {
				h.noteItem(sc, &qs[i], 0, false, tlx.QueryStats{}, it.Err)
			}
			continue
		}
		if kj, ok := hit[j]; ok {
			key := keys[kj]
			if oks[kj] {
				ans := vals[kj].(*cachedAnswer)
				out[i] = batchOKItem(ans.result, ans.stats, true, lsn)
				if traced {
					h.noteItem(sc, &qs[i], key.Cell, true, ans.stats, nil)
				}
				continue
			}
			if ans, ok := filled[key]; ok {
				// A duplicate of a key this batch already filled: a hit in
				// all but timing.
				out[i] = batchOKItem(ans.result, ans.stats, true, lsn)
				if traced {
					h.noteItem(sc, &qs[i], key.Cell, true, ans.stats, nil)
				}
				continue
			}
			body := &topkBody{Options: it.Options}
			ans := &cachedAnswer{result: body, stats: it.Stats}
			h.cache.Put(key, lsn, ans)
			filled[key] = ans
			recordQueryStats("topk", it.Stats)
			out[i] = batchOKItem(body, it.Stats, false, lsn)
			if traced {
				h.noteItem(sc, &qs[i], key.Cell, false, it.Stats, nil)
			}
			continue
		}
		// Cache off, or the walk fell short of k: fresh, uncached answer.
		recordQueryStats("topk", it.Stats)
		out[i] = batchOKItem(&topkBody{Options: it.Options}, it.Stats, false, lsn)
		if traced {
			h.noteItem(sc, &qs[i], it.Key.Sum64(), false, it.Stats, nil)
		}
	}
}
