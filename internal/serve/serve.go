// Package serve exposes a τ-LevelIndex over HTTP with JSON responses — the
// deployment shape a product team would actually run: build the index once,
// then answer preference queries from many clients. Every answer is read
// from the index: top-k is one walk down the cell chain the weights land
// in, kSPR and MaxRank are reads of its columns, and UTK, ORU and WhyNot
// scan or walk its cells. A Handler serves one Backend — a published index
// with its version stamp, and a write path — and its constructor picks which:
// memory-only (NewHandler), store-backed (NewStoreHandler) or follower
// (NewFollowerHandler).
//
// # Endpoints
//
// Every endpoint is registered once, under /v1/. Queries are POST:
//
//	/v1/query                       JSON body {"family": "topk", "w": [...], "k": 5, ...}
//
// answers the uniform envelope {"result": ..., "stats": {"visitedCells": n,
// "lpCalls": m}, "lsn": n}. The families and their parameters (k and m
// default to 10 when omitted or 0):
//
//	topk     w, k            ranked retrieval at a weight vector
//	kspr     focal, k        regions where an option ranks top-k
//	utk      lo, hi, k       options reachable for a weight region
//	oru      w, k, m         m options around approximate weights
//	maxrank  focal           best achievable rank of an option
//	whynot   focal, w, k     why-not explanation with suggestion
//
// The batched form is
//
//	/v1/query/batch                 JSON body {"queries": [<query body>, ...]}
//
// carrying up to 1024 query bodies through one round trip and one
// published index; each item is then answered exactly as /v1/query would
// answer it. The answer is {"results": [...]}, index-aligned with the
// request: each success item is the /v1/query envelope, each failure item
// is {"error": "...", "status": n} with the status /v1/query would have
// answered, failing no neighbors (batch.go documents the envelope in
// full). Updates are POST too:
//
//	/v1/insert                      add an option to the index
//	/v1/insert/batch                add up to 1024 options through one
//	                                engine batch apply and one WAL fsync
//	                                group
//
// and the read-only introspection endpoints are GET:
//
//	/v1/stats                       index shape and construction statistics
//	/v1/metrics                     Prometheus text exposition (see # Observability)
//	/v1/admin/trace                 the flight recorder's retained traces
//	/v1/admin/hotcells              the cell chains top-k traffic hits most
//
// # JSON envelope
//
// Success responses are 200 with an endpoint-specific JSON object.
// Failures — including unknown paths and wrong methods — are a JSON object
// {"error": "..."} with the status encoding the cause:
//
//	400  malformed parameters, including invalid weight vectors
//	     (tlevelindex.ErrInvalidWeights)
//	403  insert on a follower (the body names the primary to write to)
//	404  unknown path
//	405  wrong method for the endpoint (the Allow header names the
//	     accepted method)
//	413  POST body larger than the 4 MiB cap
//	422  query depth k beyond the index's τ (tlevelindex.ErrBeyondTau)
//	499  client disconnected mid-query (context canceled)
//	500  a response body encoding/json refuses (NaN or ±Inf); every
//	     body is built before the status line is written
//
// # Request decoding
//
// A /v1/query or /v1/query/batch body is read once, under the 4 MiB cap,
// and decoded by a hand-written parser (codec.go) that accepts a strict
// subset of JSON: the seven query keys spelled exactly, "queries" alone at a
// batch's top level, strings of printable ASCII without escapes, and numbers
// that strconv parses as encoding/json would. encoding/json stays the
// decoder of record: the parser declines every other body — an escape, a
// null, an unknown or differently cased key, a wrong type, malformed JSON, a
// read error — and encoding/json decodes the same bytes, so its status and
// error message answer. Whatever the parser accepts decodes to what
// encoding/json would produce (FuzzQueryDecode). The insert endpoints decode
// through encoding/json directly. Responses are built by hand where
// encoding/json is not needed, and are byte-identical to its rendering.
//
// /v1/insert takes {"option": [attr, ...]} and answers {"id": n, "lsn": m}
// where n is the option's dataset id for use as a focal parameter, or -1
// when the option was filtered (it can never rank top-τ), and m is the
// log sequence number after the insert — the version stamp the query
// envelope echoes back.
//
// # Durability
//
// A handler constructed with NewStoreHandler serves a store-backed index:
// accepted inserts are appended to a write-ahead log and fsync'd before the
// 200 is written, and the constructor attaches the store's admin endpoints:
//
//	POST /v1/admin/snapshot         capture the index durably now
//	GET  /v1/admin/status           applied/snapshot LSNs, WAL length,
//	                                records replayed at recovery
//	GET  /v1/admin/snapshot/stream  the replication feed: the current index
//	                                serialized at the applied LSN; with
//	                                ?from=<lsn> equal to that LSN, the
//	                                header alone
//
// A memory-only handler answers 404 for them.
//
// # Followers
//
// A handler constructed with NewFollowerHandler serves a replica that
// tracks a remote primary (internal/replicate). Its Backend is the follower
// with the write path closed: the full query surface runs against the
// index it last installed, stamped with the LSN it was installed at, while
// /v1/insert and /v1/insert/batch answer 403 with the primary's URL. The
// constructor attaches one route of its own, GET /v1/admin/status,
// reporting {"role": "follower"} with the follow state, the applied and
// primary LSNs and the lag between them. The store's admin endpoints are
// not registered.
//
// # Observability
//
// Every endpoint is instrumented: request counts and latency histograms,
// per-query-type traversal counters, WAL/snapshot latency and runtime
// gauges are all exposed in Prometheus text format at GET /v1/metrics
// (metric names are prefixed tlx_; see DESIGN.md §14 for the full list).
// Config.Logger attaches a structured access log; Config.Pprof mounts the
// net/http/pprof profiling endpoints under /debug/pprof/.
//
// # Concurrency
//
// The handler holds no lock. Each query or query batch asks its Backend
// once for the serving index and its LSN (Backend.Serving) and answers
// from that pair; no writer changes a published index. Whether the pair
// holds anything until the answer is done is the backend's policy: a store
// holds its read lock, so its group commit — the engine apply and the WAL
// fsync under the write side — has priority over queries (DESIGN §11); a
// follower holds nothing. A query with k > τ is refused (422) rather than
// deepening the index.
// Handlers honor the request context: a client disconnect cancels the
// index traversal between cell visits.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	tlx "tlevelindex"
	"tlevelindex/internal/obs"
	"tlevelindex/internal/store"
)

// DefaultTraceSample is the head-sampling rate applied when
// Config.TraceSample is zero: one fresh trace per this many requests.
// Collecting a span tree costs a few microseconds and a dozen allocations
// per request; at 1-in-64 the amortized cost disappears into measurement
// noise while the recorder still sees a steady stream of representative
// traces. Requests presenting a caller traceparent bypass sampling
// entirely — a distributed trace must never lose its local leg.
const DefaultTraceSample = 64

// Config configures a Handler. The zero value is a production-reasonable
// default: silent, no pprof, the flight recorder on at 1-in-64 sampling.
type Config struct {
	// Logger receives the access log. Requests log at Info; scraper
	// traffic (/v1/metrics, /debug/pprof) logs at Debug. Nil is silent.
	Logger *slog.Logger
	// Pprof mounts the net/http/pprof endpoints under /debug/pprof/ on
	// the handler's mux. Off by default: the profiling endpoints reveal
	// process internals and should only face operators.
	Pprof bool
	// TraceBuffer bounds the flight recorder's recent-trace ring: 0 selects
	// obs.DefaultTraceBuffer, a negative value disables the recorder (and
	// with it request tracing and GET /v1/admin/trace).
	TraceBuffer int
	// SlowQuery is the slow-tier admission threshold: requests at least this
	// slow are retained separately and logged at Warn. 0 selects
	// obs.DefaultSlowThreshold; a negative value disables the slow tier.
	SlowQuery time.Duration
	// TraceSample is the head-sampling rate for fresh traces: when no caller
	// traceparent is presented, one request in every TraceSample collects a
	// full span tree (the first request is always sampled, so a fresh handler
	// traces immediately). 0 selects DefaultTraceSample, 1 traces every
	// request, and a negative value traces only requests that present a
	// traceparent. Propagated traceparents are always traced regardless of
	// the rate: a caller that chose to trace must see its downstream spans.
	TraceSample int
	// Recorder, when non-nil, is an externally constructed flight recorder
	// the handler adopts instead of building its own (overriding TraceBuffer
	// and SlowQuery). Follower deployments share one recorder between the
	// handler and the replication client so a bootstrap's spans land in the
	// same rings as request traces.
	Recorder *obs.Recorder
}

// Handler answers preference queries against one Backend, each from the
// index it publishes, stamped with its LSN.
type Handler struct {
	be     Backend
	routes []route
	log    *slog.Logger
	pprof  bool
	rec    *obs.Recorder // flight recorder; nil when disabled
	hot    *obs.HotCells // sampled per-cell top-k traffic
	// traceEvery is the resolved head-sampling rate: a fresh trace starts on
	// every traceEvery-th request without a caller traceparent (0 means only
	// propagated traceparents are traced). traceTick is the request counter
	// the rate divides.
	traceEvery uint64
	traceTick  atomic.Uint64
}

// route is one endpoint: its full /v1/ pattern and its method-gated handler.
type route struct {
	pattern string
	fn      http.HandlerFunc
}

// NewHandler wraps an index in a memory-only handler: inserts are accepted
// but lost on restart. The handler orders its own writes against its
// queries; the caller must not insert into the index concurrently.
func NewHandler(ix *tlx.Index, cfg Config) *Handler {
	return newHandler(newMemBackend(ix), cfg)
}

// NewStoreHandler serves a store-backed index: inserts go through the
// store's write-ahead log (fsync before the 200), and the admin endpoints
// are registered. Queries answer from Store.Serving, so each carries the
// exact LSN of the index it read.
func NewStoreHandler(st *store.Store, cfg Config) *Handler {
	return newHandler(st, cfg).attachStore(st)
}

// NewFollowerHandler serves a follower replica: queries run against the
// index the follower last installed, stamped with its LSN, inserts
// are refused with a pointer at the primary, and /v1/admin/status reports
// the follow state. The store admin endpoints do not apply in this mode.
func NewFollowerHandler(f Follower, cfg Config) *Handler {
	return newHandler(followerBackend{f}, cfg).attachFollower(f)
}

func newHandler(be Backend, cfg Config) *Handler {
	h := &Handler{be: be, hot: obs.NewHotCells(0, 0)}
	h.log = cfg.Logger
	if h.log == nil {
		h.log = obs.NopLogger()
	}
	h.pprof = cfg.Pprof
	switch {
	case cfg.Recorder != nil:
		h.rec = cfg.Recorder
	case cfg.TraceBuffer >= 0:
		h.rec = obs.NewRecorder(cfg.TraceBuffer, cfg.SlowQuery, h.log)
	}
	switch {
	case cfg.TraceSample > 0:
		h.traceEvery = uint64(cfg.TraceSample)
	case cfg.TraceSample == 0:
		h.traceEvery = DefaultTraceSample
	}
	registerProcessGauges()
	h.handle("/v1/query", post(h.handleQuery))
	h.handle("/v1/query/batch", post(h.handleQueryBatch))
	h.handle("/v1/stats", get(h.handleStats))
	h.handle("/v1/insert", post(h.handleInsert))
	h.handle("/v1/insert/batch", post(h.handleInsertBatch))
	h.handle("/v1/metrics", get(obs.Default().Handler().ServeHTTP))
	h.handle("/v1/admin/trace", get(h.handleTrace))
	h.handle("/v1/admin/hotcells", get(h.handleHotCells))
	return h
}

// handle adds an endpoint to the set Mux registers.
func (h *Handler) handle(pattern string, fn http.HandlerFunc) {
	h.routes = append(h.routes, route{pattern, fn})
}

// Mux returns a ServeMux with every endpoint registered once, under /v1/.
// Every endpoint is instrumented: requests count into
// tlx_http_requests_total{endpoint,code}, latency into
// tlx_http_request_seconds{endpoint}, and each request emits an access log
// record, the endpoint label being the route's pattern. Unknown paths answer
// the JSON 404 envelope.
func (h *Handler) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range h.routes {
		mux.HandleFunc(rt.pattern, h.instrument(rt.pattern, rt.fn))
	}
	if h.pprof {
		mountPprof(mux)
	}
	// Everything unrouted funnels into the JSON 404 envelope instead of
	// ServeMux's text/plain page, keeping the error contract uniform.
	mux.HandleFunc("/", h.instrument("/404", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: fmt.Sprintf("no such endpoint %s", r.URL.Path)})
	}))
	return mux
}

func get(fn http.HandlerFunc) http.HandlerFunc  { return methodOnly(http.MethodGet, fn) }
func post(fn http.HandlerFunc) http.HandlerFunc { return methodOnly(http.MethodPost, fn) }

// methodOnly gates an endpoint to one method; everything else gets a 405
// through the JSON envelope with the Allow header naming the accepted
// method, per RFC 9110 §15.5.6.
func methodOnly(method string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeJSON(w, http.StatusMethodNotAllowed,
				errorBody{Error: fmt.Sprintf("method %s not allowed", r.Method)})
			return
		}
		fn(w, r)
	}
}

// statusCanceled is the nonstandard 499 nginx popularized for client
// disconnects; no stdlib constant exists.
const statusCanceled = 499

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// respWriter builds one response body in full before the status line goes
// out: a query item by hand (codec.go), a WhyNot result, an error item and
// every writeJSON body through enc, a json.Encoder appending to the same
// buffer. Pooled; a body is assembled and sent by one goroutine.
type respWriter struct {
	b   []byte
	enc *json.Encoder
	// memo finds the bytes b[off:end] a kSPR row's first occurrence wrote
	// (codec.go); rows counts the kSPR rows appended.
	memo rowMemo
	rows int
}

var respPool = sync.Pool{New: func() any {
	rw := &respWriter{}
	rw.enc = json.NewEncoder(rw)
	return rw
}}

func (rw *respWriter) Write(p []byte) (int, error) {
	rw.b = append(rw.b, p...)
	return len(p), nil
}

// value appends v exactly as json.Marshal renders it; on failure b is
// unchanged, because Encode writes nothing for a value it refuses.
func (rw *respWriter) value(v any) error {
	if err := rw.enc.Encode(v); err != nil {
		return err
	}
	rw.b = rw.b[:len(rw.b)-1] // Encode's trailing newline
	return nil
}

// finish settles the body: when building it failed, the error envelope
// replaces it and status becomes 500. Either way it gains its trailing
// newline. It returns the status the body goes out under.
func (rw *respWriter) finish(status int, err error) int {
	if err != nil {
		status = http.StatusInternalServerError
		rw.b = rw.b[:0]
		_ = rw.value(errorBody{Error: err.Error()}) // a string always encodes
	}
	rw.b = append(rw.b, '\n')
	return status
}

// Past these sizes a respWriter is dropped instead of pooled, as fmt does
// with its printers, so one large kSPR batch does not keep its body and
// memo alive in the pool. They sit well above a single kSPR answer (~120 KB
// and ~120 distinct rows at p99 on analytic's index): with fmt's 64 KiB,
// the writers those answers dropped put ~20 % on analytic's lat_p99_us.
const (
	maxPooledBytes = 1 << 20
	maxPooledRows  = 4096
)

// jsonContentType is every JSON response's Content-Type value, shared: a
// header value slice is only ever replaced or appended to, never written
// in place, and Set would allocate a fresh one per response.
var jsonContentType = []string{"application/json"}

// send writes the settled body under status and returns rw to the pool.
func (rw *respWriter) send(w http.ResponseWriter, status int) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(rw.b) // headers are out; nothing useful to do on failure
	if cap(rw.b) > maxPooledBytes || rw.memo.n > maxPooledRows {
		return
	}
	rw.b, rw.rows = rw.b[:0], 0
	rw.memo.reset()
	respPool.Put(rw)
}

// writeJSON answers v under status. The body is encoded before the status
// line is written, so a value encoding/json refuses (NaN, ±Inf) answers 500
// with the error envelope instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	rw := respPool.Get().(*respWriter)
	rw.send(w, rw.finish(status, rw.value(v)))
}

func badRequest(w http.ResponseWriter, format string, args ...interface{}) {
	writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(format, args...)})
}

// statusFor maps the public sentinel errors to HTTP statuses; anything
// unrecognized is a 400 (the remaining failures are all input validation).
func statusFor(err error) int {
	switch {
	case errors.Is(err, tlx.ErrBeyondTau):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return statusCanceled
	}
	return http.StatusBadRequest
}

func writeErr(w http.ResponseWriter, err error) {
	var ro *readOnlyError
	if errors.As(err, &ro) {
		writeJSON(w, http.StatusForbidden, ro)
		return
	}
	writeJSON(w, statusFor(err), errorBody{Error: err.Error()})
}

// maxBodyBytes caps every POST body. The largest legal envelope, 1024
// items, is well under 1 MiB, so the cap never refuses a valid request.
const maxBodyBytes = 4 << 20

// decodeBody decodes a POST body of at most maxBodyBytes into v. On failure
// it answers the error envelope — 413 for an over-cap body, otherwise 400
// "bad <what> body" — and reports false. The insert endpoints decode
// through it; the query endpoints through decodeQueries (codec.go).
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	return decodeJSON(w, http.MaxBytesReader(w, r.Body, maxBodyBytes), what, v) == nil
}

// decodeJSON decodes the first JSON value of rd into v with encoding/json,
// answering decodeBody's error envelope when it fails.
func decodeJSON(w http.ResponseWriter, rd io.Reader, what string, v any) error {
	err := json.NewDecoder(rd).Decode(v)
	if err == nil {
		return nil
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: err.Error()})
	} else {
		badRequest(w, "bad %s body: %v", what, err)
	}
	return err
}

func (h *Handler) handleInsert(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Option []float64 `json:"option"`
	}
	if !decodeBody(w, r, "insert", &body) {
		return
	}
	if len(body.Option) == 0 {
		badRequest(w, "missing option attributes")
		return
	}
	// A single insert is a batch of one through the shared write path: the
	// store groups it with any concurrent writers' records under one WAL
	// fsync (group commit), and the memory backend takes the same amortized
	// engine batch.
	results, err := h.applyInsertBatch(r.Context(), [][]float64{body.Option})
	if err != nil {
		writeErr(w, err)
		return
	}
	res := results[0]
	if res.Err != nil {
		writeErr(w, res.Err)
		return
	}
	// The acknowledged LSN is this insert's own version stamp (captured
	// under the write lock), not the LSN at response time, which a
	// concurrent insert may already have advanced.
	writeJSON(w, http.StatusOK, struct {
		ID  int    `json:"id"`
		LSN uint64 `json:"lsn"`
	}{res.ID, res.LSN})
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	ix, _, done := h.be.Serving()
	body := struct {
		Tau           int            `json:"tau"`
		Dim           int            `json:"dim"`
		NumCells      int            `json:"numCells"`
		CellsPerLevel []int          `json:"cellsPerLevel"`
		SizeBytes     int64          `json:"sizeBytes"`
		Build         tlx.BuildStats `json:"build"`
	}{ix.Tau(), ix.Dim(), ix.NumCells(), ix.CellsPerLevel(), ix.SizeBytes(), ix.Stats()}
	done()
	writeJSON(w, http.StatusOK, body)
}
