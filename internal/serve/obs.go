package serve

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	tlx "tlevelindex"
	"tlevelindex/internal/geom"
	"tlevelindex/internal/lp"
	"tlevelindex/internal/obs"
)

// registerProcessGauges registers the process-wide instruments that do not
// depend on any particular handler: runtime gauges, the LP solve counters,
// and the geometry fast-path counters. Exposed as gauges reading the
// package atomics so the hot paths stay free of registry lookups.
var registerProcessGauges = sync.OnceFunc(func() {
	obs.RegisterRuntimeMetrics(obs.Default())
	obs.Default().GaugeFunc("tlx_lp_solves_total",
		"Linear programs solved since process start.", func() float64 {
			return float64(lp.Solves())
		})
	obs.Default().GaugeFunc("tlx_lp_pivots_total",
		"Simplex pivots since process start; over tlx_lp_solves_total, the pivots per solve.",
		func() float64 { return float64(lp.Pivots()) })
	obs.Default().GaugeFunc("tlx_lp_budget_exhausted_total",
		"Linear programs that ran out of pivot budget and reported the point reached as optimal.",
		func() float64 { return float64(lp.BudgetExhausted()) })
	obs.Default().GaugeFunc("tlx_projection_calls_total",
		"Point-to-cell projections computed since process start.", func() float64 {
			calls, _ := geom.ProjectionStats()
			return float64(calls)
		})
	obs.Default().GaugeFunc("tlx_projection_iterations_total",
		"Active-set steps taken by projections since process start.", func() float64 {
			_, steps := geom.ProjectionStats()
			return float64(steps)
		})
	obs.Default().GaugeFunc("tlx_witness_fastpath_total",
		"Feasibility checks settled by a cached witness point instead of an LP solve.",
		func() float64 {
			settles, _, _ := geom.WitnessStats()
			return float64(settles)
		}, obs.Label{Name: "kind", Value: "settle"})
	obs.Default().GaugeFunc("tlx_witness_fastpath_total",
		"Feasibility checks settled by a cached witness point instead of an LP solve.",
		func() float64 {
			_, escapes, _ := geom.WitnessStats()
			return float64(escapes)
		}, obs.Label{Name: "kind", Value: "escape"})
	obs.Default().GaugeFunc("tlx_witness_fastpath_total",
		"Feasibility checks settled by a cached witness point instead of an LP solve.",
		func() float64 {
			_, _, classifies := geom.WitnessStats()
			return float64(classifies)
		}, obs.Label{Name: "kind", Value: "classify"})
})

// registerIndexGauges exposes the served index's VerdictCache statistics.
// The hit and miss counts reflect the last build (an insert or ExtendTau
// rebuilds without the cache and zeroes them), the entry count is read
// live; GaugeFunc replaces the reader on re-registration, so the newest
// handler's index wins.
func (h *Handler) registerIndexGauges() {
	stats := func() tlx.BuildStats {
		h.mu.RLock()
		defer h.mu.RUnlock()
		return h.be.Index().Stats()
	}
	obs.Default().GaugeFunc("tlx_build_verdict_cache_hits_total",
		"VerdictCache hits during index construction and extension.", func() float64 {
			return float64(stats().VerdictHits)
		})
	obs.Default().GaugeFunc("tlx_build_verdict_cache_misses_total",
		"VerdictCache misses during index construction and extension.", func() float64 {
			return float64(stats().VerdictMisses)
		})
	obs.Default().GaugeFunc("tlx_build_verdict_cache_entries",
		"Entries held by the VerdictCache.", func() float64 {
			return float64(stats().VerdictEntries)
		})
	obs.Default().GaugeFunc("tlx_build_verdict_cache_hit_ratio",
		"VerdictCache hit ratio over construction and extension (0 when unused).", func() float64 {
			s := stats()
			return s.VerdictHitRate()
		})
}

// registerCacheGauges exposes the answer cache's counters. The cache
// keeps plain atomics (it must not depend on obs); the gauges read them on
// scrape. GaugeFunc replaces the reader on re-registration, so the newest
// handler's cache wins.
func (h *Handler) registerCacheGauges() {
	if h.cache == nil {
		return
	}
	c := h.cache
	obs.Default().GaugeFunc("tlx_cache_hits_total",
		"Answer-cache hits (entry valid at the request LSN).", func() float64 {
			return float64(c.Stats().Hits)
		})
	obs.Default().GaugeFunc("tlx_cache_misses_total",
		"Answer-cache misses (no entry for the key).", func() float64 {
			return float64(c.Stats().Misses)
		})
	obs.Default().GaugeFunc("tlx_cache_stale_total",
		"Answer-cache lookups that found an entry stamped with another LSN.", func() float64 {
			return float64(c.Stats().Stale)
		})
	obs.Default().GaugeFunc("tlx_cache_evictions_total",
		"Answer-cache entries displaced by the capacity bound.", func() float64 {
			return float64(c.Stats().Evictions)
		})
	obs.Default().GaugeFunc("tlx_cache_entries",
		"Answers currently resident in the cache.", func() float64 {
			return float64(c.Stats().Entries)
		})
}

// statusWriter captures the response status for the access log and the
// request counter. WriteHeader may never be called (implicit 200), so it
// starts at StatusOK.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so instrumented streaming endpoints
// (the snapshot-stream replication feed) can push bytes mid-response; a
// plain wrapper would hide the underlying http.Flusher and stall a
// bootstrapping follower until the whole stream buffered. When the
// underlying writer cannot flush this is a no-op.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// quiet marks endpoints whose traffic is machine-generated and periodic;
// their access logs drop to Debug so a scraper does not flood the log.
// Endpoints are named by their instrument label, the route pattern.
func quiet(endpoint string) bool {
	return endpoint == "/v1/metrics" || strings.HasPrefix(endpoint, "/debug/pprof")
}

// commonCodes are the statuses the handlers actually answer (see the
// package doc's status table); their counters are resolved at registration
// so the request path performs no registry lookup. Anything rarer falls
// back to a registry lookup.
var commonCodes = [...]int{200, 400, 403, 404, 405, 409, 410, 413, 422, 499, 500}

func requestCounter(endpoint string, code int) *obs.Counter {
	return obs.Default().Counter("tlx_http_requests_total", "HTTP requests served.",
		obs.Label{Name: "endpoint", Value: endpoint},
		obs.Label{Name: "code", Value: strconv.Itoa(code)})
}

// instrument wraps an endpoint with the request counter, the latency
// histogram, the access log, and — when the flight recorder is enabled —
// the request's root trace span. The endpoint label is the route pattern.
//
// Tracing: the wrapper adopts the caller's W3C traceparent when one is
// presented with the sampled flag set (so a follower's fetches appear under
// the follower's trace), honors an explicitly unsampled traceparent (flags
// 00) by leaving the request untraced, and otherwise starts a fresh trace
// for the sampled 1-in-Config.TraceSample of requests, answers the chosen
// position in the response traceparent header, and carries it to the
// handlers through the request context. When the root finishes, the
// assembled trace enters the recorder and the latency observation carries
// the trace id as its exemplar. Quiet endpoints are not traced: scraper
// traffic in the recent-trace ring would be pure noise.
func (h *Handler) instrument(endpoint string, fn http.HandlerFunc) http.HandlerFunc {
	hist := obs.Default().Histogram("tlx_http_request_seconds",
		"HTTP request latency in seconds.", obs.LatencyBuckets(),
		obs.Label{Name: "endpoint", Value: endpoint})
	codes := make(map[int]*obs.Counter, len(commonCodes))
	for _, c := range commonCodes {
		codes[c] = requestCounter(endpoint, c)
	}
	traceable := h.rec != nil && !quiet(endpoint)
	rootSpan := "serve" + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		var (
			sc     obs.SpanContext
			root   obs.Span
			traced bool
		)
		if traceable {
			// A parsed-but-unsampled traceparent (flags 00) is the caller
			// explicitly opting out; it neither records nor consumes a
			// head-sampling tick.
			trace, parent, sampled, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
			if !ok && h.sampleTrace() {
				trace, parent, sampled, ok = obs.NewTraceID(), 0, true, true
			}
			if ok && sampled {
				traced = true
				sc = obs.SpanContext{Trace: trace, Span: parent, Tracer: h.rec}
				root = obs.StartSpanIn(sc, rootSpan)
				w.Header().Set("traceparent", obs.Traceparent(trace, root.ID))
				r = r.WithContext(obs.ContextWithSpan(r.Context(), sc.ChildOf(root.ID)))
			}
		}
		fn(sw, r)
		took := time.Since(start)
		if traced {
			root.Duration = took
			h.rec.Record(root, endpoint, sw.status)
			hist.ObserveWithExemplar(took.Seconds(), sc.Trace)
		} else {
			hist.Observe(took.Seconds())
		}
		c := codes[sw.status]
		if c == nil {
			c = requestCounter(endpoint, sw.status)
		}
		c.Inc()
		level := slog.LevelInfo
		if quiet(endpoint) {
			level = slog.LevelDebug
		}
		h.log.Log(r.Context(), level, "http request",
			"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"durMs", float64(took)/float64(time.Millisecond), "remote", r.RemoteAddr)
	}
}

// familyCounters are one query family's traversal-stat counters, resolved
// once at package init so the per-query path is a map lookup away from its
// instruments instead of a label allocation plus registry lookup.
type familyCounters struct {
	visited, lp *obs.Counter
}

func newFamilyCounters(query string) *familyCounters {
	return &familyCounters{
		visited: obs.Default().Counter("tlx_query_visited_cells_total",
			"Cells visited by query traversals.",
			obs.Label{Name: "query", Value: query}),
		lp: obs.Default().Counter("tlx_query_lp_calls_total",
			"LP feasibility calls issued by query traversals.",
			obs.Label{Name: "query", Value: query}),
	}
}

var queryCounters = func() map[string]*familyCounters {
	m := make(map[string]*familyCounters, len(families))
	for name := range families {
		m[name] = newFamilyCounters(name)
	}
	return m
}()

// recordQueryStats feeds one query's traversal statistics into the
// per-query-type counters. Called for every traversal that ran, including
// ones abandoned by cancellation (their partial stats still count).
func recordQueryStats(query string, st tlx.QueryStats) {
	c := queryCounters[query]
	if c == nil {
		c = newFamilyCounters(query)
	}
	c.visited.Add(uint64(st.VisitedCells))
	c.lp.Add(uint64(st.LPCalls))
}

// sampleTrace decides whether a request that presented no caller
// traceparent starts a fresh trace. The first request is always sampled
// (the tick counter starts at zero, so tick 1 matches), then every
// traceEvery-th after it; a rate of 0 samples nothing. The unsampled path
// costs one atomic add and allocates nothing.
func (h *Handler) sampleTrace() bool {
	switch h.traceEvery {
	case 0:
		return false
	case 1:
		return true
	}
	return h.traceTick.Add(1)%h.traceEvery == 1
}

// mountPprof registers the net/http/pprof handlers on the mux. Opt-in via
// Config.Pprof: the profiling endpoints reveal internals and cost CPU, so the
// default mux stays without them.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
