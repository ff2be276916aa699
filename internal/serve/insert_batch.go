package serve

import (
	"context"
	"net/http"

	"tlevelindex/internal/obs"
	"tlevelindex/internal/store"
)

// POST /v1/insert/batch: many options through one envelope, one engine
// batch apply, one WAL fsync group, and one LSN advance. The envelope is {"options": [[attr, ...], ...]} in and
// {"results": [<item>, ...]} out, index-aligned with the request. A
// successful item is {"id": n, "lsn": m} — the same fields as a
// /v1/insert response, with n = -1 for a filtered option — and a failed
// item is {"error": "...", "status": n} with the status the single-insert
// endpoint would have answered, failing no neighbors. The whole batch is
// acknowledged only after every accepted record is fsync'd; per-item LSNs
// are each record's own durable stamp, exactly as if the options had been
// POSTed one at a time.

// maxBatchInserts bounds one envelope, mirroring maxBatchQueries: it caps
// the memory one request can pin and keeps the batch's write-lock hold (and
// its WAL fsync group) bounded.
const maxBatchInserts = 1024

// insertBatchRecordsTotal counts options carried by /v1/insert/batch
// envelopes; compare with tlx_wal_appends_total to see how much of the
// write load arrives pre-batched.
var insertBatchRecordsTotal = obs.Default().Counter("tlx_insert_batch_records_total",
	"Options submitted through the batched insert endpoint.")

// insertBatchItem is one per-option outcome inside the batch envelope. ID
// and LSN are pointers so a success item always carries both fields (an id
// of -1 and an LSN of 0 are meaningful) while a failure item carries
// neither.
type insertBatchItem struct {
	ID     *int    `json:"id,omitempty"`
	LSN    *uint64 `json:"lsn,omitempty"`
	Error  string  `json:"error,omitempty"`
	Status int     `json:"status,omitempty"`
}

func (h *Handler) handleInsertBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Options [][]float64 `json:"options"`
	}
	if !decodeBody(w, r, "insert batch", &body) {
		return
	}
	if len(body.Options) == 0 {
		badRequest(w, "empty batch")
		return
	}
	if len(body.Options) > maxBatchInserts {
		badRequest(w, "batch of %d inserts exceeds the limit of %d", len(body.Options), maxBatchInserts)
		return
	}
	insertBatchRecordsTotal.Add(uint64(len(body.Options)))
	results, err := h.applyInsertBatch(r.Context(), body.Options)
	if err != nil {
		writeErr(w, err)
		return
	}
	items := make([]insertBatchItem, len(results))
	for i, res := range results {
		if res.Err != nil {
			items[i] = insertBatchItem{Error: res.Err.Error(), Status: statusFor(res.Err)}
			continue
		}
		id, lsn := res.ID, res.LSN
		items[i] = insertBatchItem{ID: &id, LSN: &lsn}
	}
	writeJSON(w, http.StatusOK, struct {
		Results []insertBatchItem `json:"results"`
	}{items})
}

// applyInsertBatch runs one batch of options through the backend's write
// path — the store's group-commit WAL, the in-memory index under the write
// lock, or a follower's refusal — inside an insert.batch span when the
// request is traced. A store returns only after its fsync: the response is
// the durability ack.
func (h *Handler) applyInsertBatch(ctx context.Context, opts [][]float64) ([]store.BatchResult, error) {
	sc, traced := obs.SpanContextFrom(ctx)
	if !traced {
		results, _, err := h.be.InsertBatchLSN(opts)
		return results, err
	}
	sp := obs.StartSpanIn(sc, "insert.batch")
	results, stats, err := h.be.InsertBatchLSN(opts)
	sp.Err = err
	sp.Set("records", float64(len(opts)))
	sp.Set("logged", float64(stats.Logged))
	sp.Set("accepted", float64(stats.Accepted))
	sp.Set("rebuildNs", float64(stats.FinalizeNS))
	sp.FinishTo(sc.Tracer)
	return results, err
}
