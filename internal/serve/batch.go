package serve

import (
	"context"
	"net/http"

	tlx "tlevelindex"
)

// POST /v1/query/batch: many QueryRequests through one envelope and one
// lock decision. POST /v1/query is a batch of one through the same
// dispatchBatch, so an item answers exactly what the single-query endpoint
// would. What a batch buys is one round trip and one lock acquisition, not
// a cheaper traversal.
//
// The envelope is {"queries": [<QueryRequest>, ...]} in and
// {"results": [<item>, ...]} out, index-aligned with the request. A
// successful item is {"result": ..., "stats": ..., "lsn": n} — a /v1/query
// response, the same queryItem; a failed item carries {"error": ...,
// "status": n} with the HTTP status the single-query endpoint would have
// answered, without failing its neighbors.

// maxBatchQueries bounds one envelope; anything larger is a 400. It caps
// the memory one request can pin and keeps a batch's lock hold bounded.
const maxBatchQueries = 1024

// batchRequest is the POST /v1/query/batch body as encoding/json decodes
// it (decodeFallback).
type batchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// handleQueryBatch is POST /v1/query/batch.
func (h *Handler) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	d, qs, ok := decodeQueries(w, r, true)
	if !ok {
		return
	}
	defer d.release()
	if len(qs) == 0 {
		badRequest(w, "empty batch")
		return
	}
	if len(qs) > maxBatchQueries {
		badRequest(w, "batch of %d queries exceeds the limit of %d", len(qs), maxBatchQueries)
		return
	}
	for i := range qs {
		qs[i].defaults()
	}
	out := d.itemsFor(len(qs))
	h.dispatchBatch(r.Context(), qs, out)
	writeItems(w, r, out, true)
}

// dispatchBatch answers qs[i] into out[i], every item under one read-lock
// acquisition; an item that names no family or lacks a parameter is its
// error item.
func (h *Handler) dispatchBatch(ctx context.Context, qs []QueryRequest, out []queryItem) {
	h.runQuery(func(ix *tlx.Index, lsn uint64) {
		for i := range qs {
			spec, err := resolve(&qs[i])
			if err != nil {
				out[i] = errItem(err)
				continue
			}
			h.runOn(ctx, spec, &qs[i], ix, lsn, &out[i])
		}
	})
}
