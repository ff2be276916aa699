package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	tlx "tlevelindex"
	"tlevelindex/internal/cache"
	"tlevelindex/internal/obs"
)

// Query dispatch. Every query — a POST /v1/query body or one item of a
// POST /v1/query/batch envelope, decoded by the query codec (codec.go) — is
// a QueryRequest, routed through the familySpec its Family names: take the
// read lock, consult the answer cache when the family has a cache key, run
// the traversal otherwise, and hand back one queryItem, the wire form both
// routes write.

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

// Family result bodies: the "result" objects of the query envelope, held by
// the answer cache for the cached families, so cached and fresh answers
// marshal byte-identically.
type topkBody struct {
	Options []int `json:"options"`
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

// cachedAnswer is one computed answer — a result body and the traversal
// statistics of the run that produced it. It is what the cache stores for a
// family with a cache key, and every wire item that reports the answer points
// into it, so a hit echoes both unchanged and copies neither. Immutable once
// built.
type cachedAnswer struct {
	result any
	stats  queryStatsBody
}

// queryItem is the wire form of one query's outcome: the whole /v1/query
// response, and one element of a /v1/query/batch response. A success carries
// result, stats, cached and lsn; a failure carries error and the HTTP status
// /v1/query answers it with (plus zero cached and lsn).
type queryItem struct {
	Result any             `json:"result,omitempty"`
	Stats  *queryStatsBody `json:"stats,omitempty"`
	Cached bool            `json:"cached"`
	LSN    uint64          `json:"lsn"`
	Error  string          `json:"error,omitempty"`
	Status int             `json:"status,omitempty"`
}

func errItem(err error) queryItem {
	return queryItem{Error: err.Error(), Status: statusFor(err)}
}

// newItem is the item for one run of the cache-then-traverse path.
func newItem(ans *cachedAnswer, cached bool, lsn uint64, err error) queryItem {
	if err != nil {
		return errItem(err)
	}
	return queryItem{Result: ans.result, Stats: &ans.stats, Cached: cached, LSN: lsn}
}

// familySpec wires one query family into the shared pipeline.
type familySpec struct {
	name string
	// itemSpan is the per-item trace span name ("item."+name), precomputed
	// so the traced hot path concatenates nothing. Filled at init.
	itemSpan string
	// needsFocal marks families whose Focal parameter is required.
	needsFocal bool
	// cacheKey derives the answer-cache key from the query's parameters;
	// the LSN stamp versions it. Nil for a family whose answers are never
	// cached.
	cacheKey func(q *QueryRequest) cache.Key
	// run executes the traversal: the result body, its stats, and the
	// cell-chain key the traversal walked (0 for a family without one). It
	// returns a non-nil result body even alongside an error when partial
	// traversal statistics should still be recorded (cancellation).
	run func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, uint64, error)
}

// fmtFloats renders a float slice canonically for cache-key params: 'g'
// with -1 precision round-trips every float64 exactly, so equal vectors —
// and only equal vectors — produce equal params.
func fmtFloats(dst []byte, v []float64) []byte {
	for i, f := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	return dst
}

func init() {
	for name, spec := range families {
		spec.itemSpan = "item." + name
	}
}

var families = map[string]*familySpec{
	"topk": {
		name: "topk",
		// No cacheKey: a top-k answer is fixed by the cell chain the weights
		// land in, and finding that chain is the walk that answers, so a
		// cache lookup would cost what it saves.
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, uint64, error) {
			res, err := ix.TopKContext(ctx, q.W, q.K)
			if res == nil {
				return nil, tlx.QueryStats{}, 0, err
			}
			return &topkBody{Options: res.Options}, res.Stats, res.Key.Sum64(), err
		},
	},
	"kspr": {
		name:       "kspr",
		needsFocal: true,
		// No cacheKey: the answer is a prefix of the option→cells column
		// and its regions are windows of the rows column, so a hit would
		// save only the row copy, and the encoding — each distinct row
		// formatted once (respWriter.row) — is paid either way.
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
		cacheKey: func(q *QueryRequest) cache.Key {
			p := append(fmtFloats([]byte("lo"), q.Lo), ";hi"...)
			return cache.Key{Family: "utk", K: q.K,
				Params: string(fmtFloats(p, q.Hi))}
		},
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
		cacheKey: func(q *QueryRequest) cache.Key {
			p := fmtFloats([]byte("w"), q.W)
			p = append(p, ";m"...)
			p = strconv.AppendInt(p, int64(q.M), 10)
			return cache.Key{Family: "oru", K: q.K, Params: string(p)}
		},
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
		// No cacheKey: the answer is one read of the option→cells column,
		// so a cache hit would cost what the read does.
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
		cacheKey: func(q *QueryRequest) cache.Key {
			p := []byte("f")
			p = strconv.AppendInt(p, int64(*q.Focal), 10)
			p = append(p, ";w"...)
			return cache.Key{Family: "whynot", K: q.K,
				Params: string(fmtFloats(p, q.W))}
		},
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, uint64, error) {
			res, err := ix.WhyNotContext(ctx, *q.Focal, q.W, q.K)
			if res == nil {
				return nil, tlx.QueryStats{}, 0, err
			}
			return res, res.Stats, 0, err
		},
	},
}

// b2f renders a bool as a span attribute value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
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

// runOn answers one query on one serving index. When the request is traced
// the item runs inside a child span of its own, which noteItem finishes.
func (h *Handler) runOn(ctx context.Context, spec *familySpec, q *QueryRequest,
	ix *tlx.Index, lsn uint64) queryItem {
	sc, traced := obs.SpanContextFrom(ctx)
	if !traced {
		ans, cached, _, err := h.answer(ctx, spec, q, ix, lsn)
		return newItem(ans, cached, lsn, err)
	}
	sp := obs.StartSpanIn(sc, spec.itemSpan)
	ans, cached, cell, err := h.answer(obs.ContextWithSpan(ctx, sc.ChildOf(sp.ID)), spec, q, ix, lsn)
	h.noteItem(sc, &sp, spec.name, q, cell, ans, cached, err)
	return newItem(ans, cached, lsn, err)
}

// noteItem finishes one item's span with its cache status and traversal
// effort, and annotates the trace with the query's identity (family,
// preference vector, k, cell key, stats) — the detail the slow tier retains
// so a captured slow request can be replayed exactly. ans is nil when the
// item failed.
func (h *Handler) noteItem(sc obs.SpanContext, sp *obs.Span, family string, q *QueryRequest,
	cell uint64, ans *cachedAnswer, cached bool, err error) {
	meta := obs.QueryMeta{Family: family, W: q.W, K: q.K, Cell: obs.CellKey(cell), Cached: cached}
	sp.Err = err
	if ans != nil {
		meta.VisitedCells, meta.LPCalls = ans.stats.VisitedCells, ans.stats.LPCalls
		sp.Set("cached", b2f(cached))
		sp.Set("visitedCells", float64(ans.stats.VisitedCells))
		sp.Set("lpCalls", float64(ans.stats.LPCalls))
	}
	h.rec.Annotate(sc.Trace, meta)
	sp.FinishTo(sc.Tracer)
}

// answer is the cache-then-traverse path: the answer, whether it came from
// the cache, and the cell-chain key the traversal walked (0 for a cache hit
// and for a family without one). A walked chain counts into the hot-cell
// sketch.
func (h *Handler) answer(ctx context.Context, spec *familySpec, q *QueryRequest,
	ix *tlx.Index, lsn uint64) (ans *cachedAnswer, cached bool, cell uint64, err error) {
	var key cache.Key
	cacheable := h.cache != nil && spec.cacheKey != nil
	if cacheable {
		key = spec.cacheKey(q)
		if v, ok := h.cache.Get(key, lsn); ok {
			return v.(*cachedAnswer), true, 0, nil
		}
	}
	result, stats, cell, err := spec.run(ctx, ix, q)
	if result != nil {
		// Partial traversals (cancellation) still report their effort.
		recordQueryStats(spec.name, stats)
	}
	if err != nil {
		return nil, false, cell, err
	}
	if cell != 0 {
		h.hot.Observe(cell)
	}
	ans = &cachedAnswer{result: result, stats: queryStatsBody(stats)}
	if cacheable {
		h.cache.Put(key, lsn, ans)
	}
	return ans, false, cell, nil
}

// handleQuery is POST /v1/query: a batch of one, answered with its item —
// or, when the item failed, with the error envelope under the item's
// status.
func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	qs, ok := decodeQueries(w, r, false)
	if !ok {
		return
	}
	qs = qs[:1]
	qs[0].defaults()
	out := make([]queryItem, 1)
	h.dispatchBatch(r.Context(), qs, out)
	writeItems(w, r, out, false)
}
