package serve

import (
	"context"
	"net/http"

	tlx "tlevelindex"
	"tlevelindex/internal/cache"
	"tlevelindex/internal/obs"
)

// POST /v1/query/batch: many QueryRequests through one envelope and one
// lock decision. Top-k items are grouped by depth, each group answered by
// one TopKBatchContext call (a loop of the single-query walk, DESIGN.md
// §18), and their cache lookups are batched by cell key, so N same-cell
// queries cost one cache fill and N−1 cache hits. Every other family runs through the
// same per-item pipeline as POST /v1/query, just without re-taking the
// lock per item.
//
// The envelope is {"queries": [<QueryRequest>, ...]} in and
// {"results": [<item>, ...]} out, index-aligned with the request. A
// successful item is {"result": ..., "stats": ..., "cached": bool,
// "lsn": n} — a /v1/query response, the same queryItem; a failed item
// carries {"error": ..., "status": n} with the HTTP status the single-query
// endpoint would have answered, without failing its neighbors.

// maxBatchQueries bounds one envelope; anything larger is a 400. It caps
// the memory one request can pin and keeps a batch's lock hold bounded.
const maxBatchQueries = 1024

// batchRequest is the POST /v1/query/batch body.
type batchRequest struct {
	Queries []QueryRequest `json:"queries"`
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
		Results []queryItem `json:"results"`
	}{h.dispatchBatch(r.Context(), body.Queries)})
}

// dispatchBatch validates every item, then runs the whole batch under the
// lock its deepest item requires: one acquisition covers the envelope.
func (h *Handler) dispatchBatch(ctx context.Context, qs []QueryRequest) []queryItem {
	out := make([]queryItem, len(qs))
	specs := make([]*familySpec, len(qs))
	maxDepth := 0
	for i := range qs {
		spec, err := resolve(&qs[i])
		if err != nil {
			out[i] = errItem(err)
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
// items are pulled out and grouped by depth for one batch call each; the
// remaining families reuse the single-query cache-then-traverse path.
func (h *Handler) runBatchOn(ctx context.Context, qs []QueryRequest, specs []*familySpec,
	out []queryItem, ix *tlx.Index, lsn uint64) {
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
		out[i] = h.runOn(ctx, spec, &qs[i], ix, lsn)
	}
	for k, idxs := range topkByK {
		h.runTopKBatch(ctx, qs, idxs, k, out, ix, lsn)
	}
}

// runTopKBatch answers all depth-k top-k items through one batch call,
// with the cache consulted in one batched multi-get over the located cell
// keys. Items that land in the same cell chain — clustered traffic — dedupe
// to one cache fill: the first miss publishes the answer, every duplicate
// reads it back as a hit.
func (h *Handler) runTopKBatch(ctx context.Context, qs []QueryRequest, idxs []int, k int,
	out []queryItem, ix *tlx.Index, lsn uint64) {
	ws := make([][]float64, len(idxs))
	for j, i := range idxs {
		ws[j] = qs[i].W
	}
	items, err := ix.TopKBatchContext(ctx, ws, k)
	if err != nil {
		// A batch-level failure (strict depth, cancellation) is what the
		// single-query endpoint would have answered for each of these items.
		for _, i := range idxs {
			out[i] = errItem(err)
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
	// Items share one index span (the index's query.topkbatch, parented
	// under the envelope), so the per-item spans are markers carrying each
	// item's cache status, cell key and traversal effort rather than timings.
	sc, traced := obs.SpanContextFrom(ctx)
	put := func(i int, cell uint64, ans *cachedAnswer, cached bool, err error) {
		out[i] = newItem(ans, cached, lsn, err)
		if traced {
			sp := obs.StartSpanIn(sc, "item.topk")
			h.noteItem(sc, &sp, "topk", &qs[i], cell, ans, cached, err)
		}
	}
	// hit[j]/filled share answers across duplicate keys within the batch.
	hit := make(map[int]int, len(cpos)) // item position -> key position
	for kj, j := range cpos {
		hit[j] = kj
	}
	filled := make(map[cache.Key]*cachedAnswer)
	for j, i := range idxs {
		it := &items[j]
		if it.Err != nil {
			put(i, 0, nil, false, it.Err)
			continue
		}
		kj, cacheable := hit[j]
		if cacheable {
			key := keys[kj]
			if oks[kj] {
				put(i, key.Cell, vals[kj].(*cachedAnswer), true, nil)
				continue
			}
			if ans, ok := filled[key]; ok {
				// A duplicate of a key this batch already filled: a hit in
				// all but timing.
				put(i, key.Cell, ans, true, nil)
				continue
			}
		}
		// A fresh answer: the first of its cell chain in this batch, or not
		// cacheable at all (cache off, or the walk fell short of k).
		ans := &cachedAnswer{result: &topkBody{Options: it.Options}, stats: queryStatsBody(it.Stats)}
		recordQueryStats("topk", it.Stats)
		if cacheable {
			h.cache.Put(keys[kj], lsn, ans)
			filled[keys[kj]] = ans
		}
		put(i, it.Key.Sum64(), ans, false, nil)
	}
}
