package serve

import (
	"context"
	"fmt"
	"net/http"
	"slices"

	tlx "tlevelindex"
	"tlevelindex/internal/obs"
)

// Query dispatch. Every query — a POST /v1/query body or one item of a
// POST /v1/query/batch envelope, decoded by the query codec (codec.go) — is
// a QueryRequest, routed through the familySpec its Family names: take the
// read lock, run the family on the published index, and hand back one
// queryItem, the wire form both routes write.

// QueryRequest is the unified query envelope accepted by POST /v1/query.
// Family selects the query type; the remaining fields are family-specific
// (unused ones are ignored). K and M default to 10 when omitted.
type QueryRequest struct {
	Family string    `json:"family"`
	W      []float64 `json:"w,omitempty"`
	K      int       `json:"k,omitempty"`
	Focal  *int      `json:"focal,omitempty"`
	Lo     []float64 `json:"lo,omitempty"`
	Hi     []float64 `json:"hi,omitempty"`
	M      int       `json:"m,omitempty"`
}

// defaults gives an omitted k or m its value of 10. JSON cannot tell an
// explicit 0 from omission without pointer fields, so an explicit 0 selects
// the default too.
func (q *QueryRequest) defaults() {
	if q.K == 0 {
		q.K = 10
	}
	if q.M == 0 {
		q.M = 10
	}
}

// queryStatsBody is the envelope rendering of tlx.QueryStats.
type queryStatsBody struct {
	VisitedCells int `json:"visitedCells"`
	LPCalls      int `json:"lpCalls"`
}

// Family result bodies: the "result" objects of the query envelope.

// topkBody is a tlx.TopKResult, field for field, so that a top-k answer
// converts to its body in place; only its options go on the wire.
type topkBody struct {
	Options []int          `json:"options"`
	Key     tlx.CellKey    `json:"-"`
	Stats   tlx.QueryStats `json:"-"`
}

type ksprBody struct {
	Regions []tlx.Region `json:"regions"`
}

type utkBody struct {
	Options    []int   `json:"options"`
	Partitions [][]int `json:"partitionTopKSets"`
}

type oruBody struct {
	Options []int   `json:"options"`
	Rho     float64 `json:"rho"`
}

type maxrankBody struct {
	Rank int `json:"rank"`
}

// queryItem is the wire form of one query's outcome: the whole /v1/query
// response, and one element of a /v1/query/batch response. A success carries
// result, stats and lsn; a failure carries error and the HTTP status
// /v1/query answers it with (plus a zero lsn). An answered item's Stats
// points at the item's own stats, so answering allocates none.
type queryItem struct {
	Result any             `json:"result,omitempty"`
	Stats  *queryStatsBody `json:"stats,omitempty"`
	LSN    uint64          `json:"lsn"`
	Error  string          `json:"error,omitempty"`
	Status int             `json:"status,omitempty"`
	stats  queryStatsBody
}

func errItem(err error) queryItem {
	return queryItem{Error: err.Error(), Status: statusFor(err)}
}

// familySpec wires one query family into the shared pipeline.
type familySpec struct {
	name string
	// itemSpan is the per-item trace span name ("item."+name), precomputed
	// so the traced hot path concatenates nothing. Filled at init.
	itemSpan string
	// needsFocal marks families whose Focal parameter is required.
	needsFocal bool
	// run executes the traversal: the result body, its stats, and the
	// cell-chain key the traversal walked (0 for a family without one). It
	// returns a non-nil result body even alongside an error when partial
	// traversal statistics should still be recorded (cancellation).
	run func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, uint64, error)
}

func init() {
	for name, spec := range families {
		spec.itemSpan = "item." + name
	}
}

var families = map[string]*familySpec{
	"topk": {
		name: "topk",
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, uint64, error) {
			res, err := ix.TopKContext(ctx, q.W, q.K)
			if res == nil {
				return nil, tlx.QueryStats{}, 0, err
			}
			return (*topkBody)(res), res.Stats, res.Key.Sum64(), err
		},
	},
	"kspr": {
		name:       "kspr",
		needsFocal: true,
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, uint64, error) {
			res, err := ix.KSPRContext(ctx, q.K, *q.Focal)
			if res == nil {
				return nil, tlx.QueryStats{}, 0, err
			}
			return &ksprBody{Regions: res.Regions}, res.Stats, 0, err
		},
	},
	"utk": {
		name: "utk",
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, uint64, error) {
			res, err := ix.UTKContext(ctx, q.K, q.Lo, q.Hi)
			if res == nil {
				return nil, tlx.QueryStats{}, 0, err
			}
			parts := make([][]int, len(res.Partitions))
			for i, p := range res.Partitions {
				parts[i] = p.TopK
			}
			return &utkBody{Options: res.Options, Partitions: parts}, res.Stats, 0, err
		},
	},
	"oru": {
		name: "oru",
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, uint64, error) {
			res, err := ix.ORUContext(ctx, q.K, q.W, q.M)
			if res == nil {
				return nil, tlx.QueryStats{}, 0, err
			}
			return &oruBody{Options: res.Options, Rho: res.Rho}, res.Stats, 0, err
		},
	},
	"maxrank": {
		name:       "maxrank",
		needsFocal: true,
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, uint64, error) {
			res, err := ix.MaxRankContext(ctx, *q.Focal)
			if res == nil {
				return nil, tlx.QueryStats{}, 0, err
			}
			return &maxrankBody{Rank: res.Rank}, res.Stats, 0, err
		},
	},
	"whynot": {
		name:       "whynot",
		needsFocal: true,
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, uint64, error) {
			res, err := ix.WhyNotContext(ctx, *q.Focal, q.W, q.K)
			if res == nil {
				return nil, tlx.QueryStats{}, 0, err
			}
			return res, res.Stats, 0, err
		},
	},
}

// resolve finds the request's family and checks its required parameters.
func resolve(q *QueryRequest) (*familySpec, error) {
	spec, ok := families[q.Family]
	if !ok {
		return nil, fmt.Errorf("unknown query family %q", q.Family)
	}
	if spec.needsFocal && q.Focal == nil {
		return nil, fmt.Errorf("missing parameter %q", "focal")
	}
	return spec, nil
}

// runOn answers one query on one serving index into it. When the request
// is traced the item runs inside a child span of its own, which noteItem
// finishes.
func (h *Handler) runOn(ctx context.Context, spec *familySpec, q *QueryRequest,
	ix *tlx.Index, lsn uint64, it *queryItem) {
	sc, traced := obs.SpanContextFrom(ctx)
	if !traced {
		h.answer(ctx, spec, q, ix, lsn, it)
		return
	}
	sp := obs.StartSpanIn(sc, spec.itemSpan)
	cell, err := h.answer(obs.ContextWithSpan(ctx, sc.ChildOf(sp.ID)), spec, q, ix, lsn, it)
	h.noteItem(sc, &sp, spec.name, q, cell, it.Stats, err)
}

// noteItem finishes one item's span with its traversal effort, and
// annotates the trace with the query's identity (family, preference vector,
// k, cell key, stats) — the detail the slow tier retains so a captured slow
// request can be replayed exactly. The vector is copied: q's lives in the
// request's pooled decoder. stats is nil when the item failed.
func (h *Handler) noteItem(sc obs.SpanContext, sp *obs.Span, family string, q *QueryRequest,
	cell uint64, stats *queryStatsBody, err error) {
	meta := obs.QueryMeta{Family: family, W: slices.Clone(q.W), K: q.K, Cell: obs.CellKey(cell)}
	sp.Err = err
	if stats != nil {
		meta.VisitedCells, meta.LPCalls = stats.VisitedCells, stats.LPCalls
		sp.Set("visitedCells", float64(stats.VisitedCells))
		sp.Set("lpCalls", float64(stats.LPCalls))
	}
	h.rec.Annotate(sc.Trace, meta)
	sp.FinishTo(sc.Tracer)
}

// answer runs the family on ix into it, stamped with lsn, and returns the
// cell-chain key the traversal walked (0 for a family without one). A
// walked chain counts into the hot-cell sketch.
func (h *Handler) answer(ctx context.Context, spec *familySpec, q *QueryRequest,
	ix *tlx.Index, lsn uint64, it *queryItem) (uint64, error) {
	result, stats, cell, err := spec.run(ctx, ix, q)
	if result != nil {
		// Partial traversals (cancellation) still report their effort.
		recordQueryStats(spec.name, stats)
	}
	if err != nil {
		*it = errItem(err)
		return cell, err
	}
	if cell != 0 {
		h.hot.Observe(cell)
	}
	*it = queryItem{Result: result, LSN: lsn, stats: queryStatsBody(stats)}
	it.Stats = &it.stats
	return cell, nil
}

// handleQuery is POST /v1/query: a batch of one, answered with its item —
// or, when the item failed, with the error envelope under the item's
// status.
func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	d, qs, ok := decodeQueries(w, r, false)
	if !ok {
		return
	}
	defer d.release()
	qs = qs[:1]
	qs[0].defaults()
	out := d.itemsFor(1)
	h.dispatchBatch(r.Context(), qs, out)
	writeItems(w, r, out, false)
}
