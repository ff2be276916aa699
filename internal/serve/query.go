package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	tlx "tlevelindex"
	"tlevelindex/internal/cache"
	"tlevelindex/internal/obs"
)

// Unified query decode/dispatch. Every query family — whether it arrives
// as the POST /v1/query JSON envelope or through a legacy GET route — is
// decoded into one QueryRequest and routed through dispatch, which takes
// the lock the query's depth requires, consults the answer cache, runs the
// traversal, and returns a uniform outcome. The legacy GET handlers
// are thin shells: URL decode on the way in, historical response shape on
// the way out.

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

// defaults gives omitted k/m the values the GET routes apply. (JSON cannot
// distinguish an explicit 0 from omission without pointer fields; an
// explicit 0 therefore also selects the default here, unlike ?k=0.)
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

// Family result bodies. These are the "result" objects of the /v1/query
// envelope and the values stored in the answer cache; the legacy shapers
// reassemble the historical flat responses from them, so cached and fresh
// answers marshal byte-identically on every route.
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

// cachedAnswer pairs a result body with the traversal statistics of the
// run that produced it, so a cache hit echoes both unchanged.
type cachedAnswer struct {
	result any
	stats  tlx.QueryStats
}

// queryOutcome is what dispatch hands back to the HTTP shells.
type queryOutcome struct {
	result any
	stats  tlx.QueryStats
	cached bool
	lsn    uint64
}

// familySpec wires one query family into the shared pipeline.
type familySpec struct {
	name string
	// itemSpan is the per-item trace span name ("item."+name), precomputed
	// so the traced hot path concatenates nothing. Filled at init.
	itemSpan string
	// needsFocal marks families whose Focal parameter is required.
	needsFocal bool
	// fromURL decodes a legacy GET request; parameter errors carry the
	// historical messages.
	fromURL func(r *http.Request) (*QueryRequest, error)
	// depth is the materialization depth the query needs — the k handed
	// to the lock decision.
	depth func(q *QueryRequest) int
	// cacheKey derives the answer-cache key on the index about to serve
	// the query; ok=false means the answer must not be cached (e.g. the
	// walk could not reach depth k, or the family is depth-sensitive in a
	// way the key cannot express).
	cacheKey func(ix *tlx.Index, q *QueryRequest) (cache.Key, bool)
	// run executes the traversal. It returns a non-nil result body even
	// alongside an error when partial traversal statistics should still
	// be recorded (cancellation).
	run func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, error)
	// legacy writes the historical flat response shape.
	legacy func(w http.ResponseWriter, result any, stats tlx.QueryStats)
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
		fromURL: func(r *http.Request) (*QueryRequest, error) {
			wv, err := parseVec(r.URL.Query().Get("w"))
			if err != nil {
				return nil, fmt.Errorf("w: %v", err)
			}
			k, err := parseIntParam(r, "k", 10)
			if err != nil {
				return nil, err
			}
			return &QueryRequest{Family: "topk", W: wv, K: k}, nil
		},
		depth: func(q *QueryRequest) int { return q.K },
		cacheKey: func(ix *tlx.Index, q *QueryRequest) (cache.Key, bool) {
			// The cell-chain key is the index's own statement that every
			// weight vector reaching it has this exact ordered answer, so a
			// cache-warm request costs one locate plus one Get. A walk that
			// falls short of k (or invalid weights) is not cacheable; the
			// run path reports the condition properly.
			ck, level, err := ix.LocateDepth(q.W, q.K)
			if err != nil || level != q.K {
				return cache.Key{}, false
			}
			return cache.Key{Family: "topk", Cell: ck.Sum64(), K: q.K}, true
		},
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, error) {
			res, err := ix.TopKContext(ctx, q.W, q.K)
			if res == nil {
				return nil, tlx.QueryStats{}, err
			}
			return &topkBody{Options: res.Options}, res.Stats, err
		},
		legacy: func(w http.ResponseWriter, result any, stats tlx.QueryStats) {
			b := result.(*topkBody)
			writeJSON(w, http.StatusOK, struct {
				Options      []int `json:"options"`
				VisitedCells int   `json:"visitedCells"`
			}{b.Options, stats.VisitedCells})
		},
	},
	"kspr": {
		name:       "kspr",
		needsFocal: true,
		fromURL: func(r *http.Request) (*QueryRequest, error) {
			focal, err := parseIntParam(r, "focal", -1)
			if err != nil {
				return nil, err
			}
			k, err := parseIntParam(r, "k", 10)
			if err != nil {
				return nil, err
			}
			return &QueryRequest{Family: "kspr", Focal: &focal, K: k}, nil
		},
		depth: func(q *QueryRequest) int { return q.K },
		cacheKey: func(ix *tlx.Index, q *QueryRequest) (cache.Key, bool) {
			return cache.Key{Family: "kspr", K: q.K,
				Params: "f" + strconv.Itoa(*q.Focal)}, true
		},
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, error) {
			res, err := ix.KSPRContext(ctx, q.K, *q.Focal)
			if res == nil {
				return nil, tlx.QueryStats{}, err
			}
			return &ksprBody{Regions: res.Regions}, res.Stats, err
		},
		legacy: func(w http.ResponseWriter, result any, stats tlx.QueryStats) {
			b := result.(*ksprBody)
			writeJSON(w, http.StatusOK, struct {
				Regions      []tlx.Region `json:"regions"`
				VisitedCells int          `json:"visitedCells"`
			}{b.Regions, stats.VisitedCells})
		},
	},
	"utk": {
		name: "utk",
		fromURL: func(r *http.Request) (*QueryRequest, error) {
			lo, err := parseVec(r.URL.Query().Get("lo"))
			if err != nil {
				return nil, fmt.Errorf("lo: %v", err)
			}
			hi, err := parseVec(r.URL.Query().Get("hi"))
			if err != nil {
				return nil, fmt.Errorf("hi: %v", err)
			}
			k, err := parseIntParam(r, "k", 10)
			if err != nil {
				return nil, err
			}
			return &QueryRequest{Family: "utk", Lo: lo, Hi: hi, K: k}, nil
		},
		depth: func(q *QueryRequest) int { return q.K },
		cacheKey: func(ix *tlx.Index, q *QueryRequest) (cache.Key, bool) {
			p := append(fmtFloats([]byte("lo"), q.Lo), ";hi"...)
			return cache.Key{Family: "utk", K: q.K,
				Params: string(fmtFloats(p, q.Hi))}, true
		},
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, error) {
			res, err := ix.UTKContext(ctx, q.K, q.Lo, q.Hi)
			if res == nil {
				return nil, tlx.QueryStats{}, err
			}
			parts := make([][]int, len(res.Partitions))
			for i, p := range res.Partitions {
				parts[i] = p.TopK
			}
			return &utkBody{Options: res.Options, Partitions: parts}, res.Stats, err
		},
		legacy: func(w http.ResponseWriter, result any, stats tlx.QueryStats) {
			b := result.(*utkBody)
			writeJSON(w, http.StatusOK, struct {
				Options      []int   `json:"options"`
				Partitions   [][]int `json:"partitionTopKSets"`
				VisitedCells int     `json:"visitedCells"`
			}{b.Options, b.Partitions, stats.VisitedCells})
		},
	},
	"oru": {
		name: "oru",
		fromURL: func(r *http.Request) (*QueryRequest, error) {
			wv, err := parseVec(r.URL.Query().Get("w"))
			if err != nil {
				return nil, fmt.Errorf("w: %v", err)
			}
			k, err := parseIntParam(r, "k", 10)
			if err != nil {
				return nil, err
			}
			m, err := parseIntParam(r, "m", 10)
			if err != nil {
				return nil, err
			}
			return &QueryRequest{Family: "oru", W: wv, K: k, M: m}, nil
		},
		depth: func(q *QueryRequest) int { return q.K },
		cacheKey: func(ix *tlx.Index, q *QueryRequest) (cache.Key, bool) {
			p := fmtFloats([]byte("w"), q.W)
			p = append(p, ";m"...)
			p = strconv.AppendInt(p, int64(q.M), 10)
			return cache.Key{Family: "oru", K: q.K, Params: string(p)}, true
		},
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, error) {
			res, err := ix.ORUContext(ctx, q.K, q.W, q.M)
			if res == nil {
				return nil, tlx.QueryStats{}, err
			}
			return &oruBody{Options: res.Options, Rho: res.Rho}, res.Stats, err
		},
		legacy: func(w http.ResponseWriter, result any, stats tlx.QueryStats) {
			b := result.(*oruBody)
			writeJSON(w, http.StatusOK, struct {
				Options      []int   `json:"options"`
				Rho          float64 `json:"rho"`
				VisitedCells int     `json:"visitedCells"`
			}{b.Options, b.Rho, stats.VisitedCells})
		},
	},
	"maxrank": {
		name:       "maxrank",
		needsFocal: true,
		fromURL: func(r *http.Request) (*QueryRequest, error) {
			focal, err := parseIntParam(r, "focal", -1)
			if err != nil {
				return nil, err
			}
			return &QueryRequest{Family: "maxrank", Focal: &focal}, nil
		},
		depth: func(q *QueryRequest) int { return 0 },
		cacheKey: func(ix *tlx.Index, q *QueryRequest) (cache.Key, bool) {
			// MaxRank's answer depends on the materialized depth (a deeper
			// pool can admit the option), which changes without an LSN
			// bump, so the depth joins the key.
			return cache.Key{Family: "maxrank",
				Params: "f" + strconv.Itoa(*q.Focal) +
					";d" + strconv.Itoa(ix.MaxMaterializedLevel())}, true
		},
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, error) {
			res, err := ix.MaxRankContext(ctx, *q.Focal)
			if res == nil {
				return nil, tlx.QueryStats{}, err
			}
			return &maxrankBody{Rank: res.Rank}, res.Stats, err
		},
		legacy: func(w http.ResponseWriter, result any, stats tlx.QueryStats) {
			b := result.(*maxrankBody)
			writeJSON(w, http.StatusOK, struct {
				Rank         int `json:"rank"`
				VisitedCells int `json:"visitedCells"`
			}{b.Rank, stats.VisitedCells})
		},
	},
	"whynot": {
		name:       "whynot",
		needsFocal: true,
		fromURL: func(r *http.Request) (*QueryRequest, error) {
			focal, err := parseIntParam(r, "focal", -1)
			if err != nil {
				return nil, err
			}
			wv, err := parseVec(r.URL.Query().Get("w"))
			if err != nil {
				return nil, fmt.Errorf("w: %v", err)
			}
			k, err := parseIntParam(r, "k", 10)
			if err != nil {
				return nil, err
			}
			return &QueryRequest{Family: "whynot", Focal: &focal, W: wv, K: k}, nil
		},
		depth: func(q *QueryRequest) int { return q.K },
		cacheKey: func(ix *tlx.Index, q *QueryRequest) (cache.Key, bool) {
			// The reported rank counts the indexed option pool, which
			// grows with the materialized depth — include it like maxrank.
			p := []byte("f")
			p = strconv.AppendInt(p, int64(*q.Focal), 10)
			p = append(p, ";d"...)
			p = strconv.AppendInt(p, int64(ix.MaxMaterializedLevel()), 10)
			p = append(p, ";w"...)
			return cache.Key{Family: "whynot", K: q.K,
				Params: string(fmtFloats(p, q.W))}, true
		},
		run: func(ctx context.Context, ix *tlx.Index, q *QueryRequest) (any, tlx.QueryStats, error) {
			res, err := ix.WhyNotContext(ctx, *q.Focal, q.W, q.K)
			if res == nil {
				return nil, tlx.QueryStats{}, err
			}
			return res, res.Stats, err
		},
		legacy: func(w http.ResponseWriter, result any, stats tlx.QueryStats) {
			writeJSON(w, http.StatusOK, result)
		},
	},
}

func parseVec(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("missing vector parameter")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad vector component %q", p)
		}
		out[i] = v
	}
	return out, nil
}

func parseIntParam(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		if def >= 0 {
			return def, nil
		}
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad integer parameter %q", name)
	}
	return v, nil
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

// dispatch validates the request, consults the cache, and runs the
// traversal on a miss, all under the lock the query's depth requires.
func (h *Handler) dispatch(ctx context.Context, q *QueryRequest) (out *queryOutcome, err error) {
	spec, err := resolve(q)
	if err != nil {
		return nil, err
	}
	h.runQuery(spec.depth(q), func(ix *tlx.Index, lsn uint64) {
		out, err = h.runOn(ctx, spec, q, ix, lsn)
	})
	return out, err
}

// runOn is the shared cache-then-traverse path for one serving index. When
// the request is traced it wraps the item in a child span carrying the
// cache status and annotates the trace with the query's identity (family,
// preference vector, k, cell key, stats) — the detail the slow tier retains
// so a captured slow request can be replayed exactly.
func (h *Handler) runOn(ctx context.Context, spec *familySpec, q *QueryRequest,
	ix *tlx.Index, lsn uint64) (*queryOutcome, error) {
	sc, traced := obs.SpanContextFrom(ctx)
	if !traced {
		return h.runOnInner(ctx, spec, q, ix, lsn, nil)
	}
	sp := obs.StartSpanIn(sc, spec.itemSpan)
	var key cache.Key
	out, err := h.runOnInner(obs.ContextWithSpan(ctx, sc.ChildOf(sp.ID)), spec, q, ix, lsn, &key)
	meta := obs.QueryMeta{Family: spec.name, W: q.W, K: q.K, Cell: obs.CellKey(key.Cell)}
	sp.Err = err
	if out != nil {
		meta.Cached = out.cached
		meta.VisitedCells, meta.LPCalls = out.stats.VisitedCells, out.stats.LPCalls
		sp.Set("cached", b2f(out.cached))
		sp.Set("visitedCells", float64(out.stats.VisitedCells))
		sp.Set("lpCalls", float64(out.stats.LPCalls))
	}
	h.rec.Annotate(sc.Trace, meta)
	sp.FinishTo(sc.Tracer)
	return out, err
}

// runOnInner does runOn's actual work; keyOut, when non-nil, receives the
// cache key the item resolved to (for the trace annotation).
func (h *Handler) runOnInner(ctx context.Context, spec *familySpec, q *QueryRequest,
	ix *tlx.Index, lsn uint64, keyOut *cache.Key) (*queryOutcome, error) {
	var (
		key       cache.Key
		cacheable bool
	)
	if h.cache != nil {
		key, cacheable = spec.cacheKey(ix, q)
		if cacheable {
			if keyOut != nil {
				*keyOut = key
			}
			if v, ok := h.cache.Get(key, lsn); ok {
				ans := v.(*cachedAnswer)
				return &queryOutcome{result: ans.result, stats: ans.stats, cached: true, lsn: lsn}, nil
			}
		}
	}
	result, stats, err := spec.run(ctx, ix, q)
	if result != nil {
		// Partial traversals (cancellation) still report their effort,
		// matching the pre-dispatch behavior.
		recordQueryStats(spec.name, stats)
	}
	if err != nil {
		return nil, err
	}
	if cacheable {
		h.cache.Put(key, lsn, &cachedAnswer{result: result, stats: stats})
	}
	return &queryOutcome{result: result, stats: stats, lsn: lsn}, nil
}

// handleQuery is POST /v1/query: the unified JSON envelope.
func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q QueryRequest
	if !decodeBody(w, r, "query", &q) {
		return
	}
	q.defaults()
	out, err := h.dispatch(r.Context(), &q)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Result any            `json:"result"`
		Stats  queryStatsBody `json:"stats"`
		Cached bool           `json:"cached"`
		LSN    uint64         `json:"lsn"`
	}{out.result, queryStatsBody{out.stats.VisitedCells, out.stats.LPCalls}, out.cached, out.lsn})
}

// handleLegacy adapts one historical GET route onto the shared pipeline.
func (h *Handler) handleLegacy(w http.ResponseWriter, r *http.Request, spec *familySpec) {
	q, err := spec.fromURL(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	out, err := h.dispatch(r.Context(), q)
	if err != nil {
		writeErr(w, err)
		return
	}
	spec.legacy(w, out.result, out.stats)
}
