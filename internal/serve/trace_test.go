package serve

import (
	"bufio"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tlx "tlevelindex"
	"tlevelindex/internal/obs"
)

// traceOut mirrors the GET /v1/admin/trace response for decoding.
type traceOut struct {
	Traces []struct {
		TraceID  string          `json:"traceId"`
		Endpoint string          `json:"endpoint"`
		Status   int             `json:"status"`
		Slow     bool            `json:"slow"`
		DurMs    float64         `json:"durMs"`
		Queries  []obs.QueryMeta `json:"queries"`
		Tree     *obs.SpanNode   `json:"tree"`
	} `json:"traces"`
	SlowMs       float64 `json:"slowThresholdMs"`
	DroppedSpans uint64  `json:"droppedSpans"`
}

// topkQuery is the one request the trace tests repeat.
const topkQuery = `{"family":"topk","w":[0.18,0.82],"k":2}`

func newTopKRequest(base string) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/query", strings.NewReader(topkQuery))
	return req
}

// walkTree flattens a span tree into name -> nodes.
func walkTree(n *obs.SpanNode, into map[string][]*obs.SpanNode) {
	if n == nil {
		return
	}
	into[n.Name] = append(into[n.Name], n)
	for _, c := range n.Children {
		walkTree(c, into)
	}
}

// TestBatchTraceTree: one POST /v1/query/batch must surface as a single
// retrievable trace whose tree shows the envelope, its serve.decode span and,
// per item, an item span
// with its cache status over that item's own index span, the same subtree a
// POST /v1/query records. The handler keeps the default config on purpose: a
// fresh handler's first request must be head-sampled, so tracing works out
// of the box without TraceSample tuning.
func TestBatchTraceTree(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(ix, Config{}).Mux())
	defer srv.Close()

	// Two identical top-k items: each is walked on its own, so the trace
	// shows two fresh items, each over its own query.topk span.
	body := `{"queries":[{"family":"topk","w":[0.18,0.82],"k":2},{"family":"topk","w":[0.18,0.82],"k":2}]}`
	resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	trace, _, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get("traceparent"))
	}

	var out traceOut
	if code := getJSON(t, srv.URL+"/v1/admin/trace?n=10", &out); code != 200 {
		t.Fatalf("admin/trace status %d", code)
	}
	var found *obs.SpanNode
	var queries []obs.QueryMeta
	for _, tr := range out.Traces {
		if tr.TraceID == trace.String() {
			if tr.Endpoint != "/v1/query/batch" || tr.Status != 200 {
				t.Fatalf("trace = %s %d", tr.Endpoint, tr.Status)
			}
			found, queries = tr.Tree, tr.Queries
		}
	}
	if found == nil {
		t.Fatalf("trace %s not retained (have %d traces)", trace, len(out.Traces))
	}
	if found.Name != "serve/v1/query/batch" {
		t.Fatalf("root span = %q", found.Name)
	}

	names := make(map[string][]*obs.SpanNode)
	walkTree(found, names)
	// The body is decoded in a serve.decode span under the handler span, by
	// the subset parser: both items, no encoding/json fallback.
	if dec := names["serve.decode"]; len(dec) != 1 || dec[0].ParentID != found.SpanID ||
		dec[0].Attrs["bytes"] != float64(len(body)) || dec[0].Attrs["items"] != 2 || dec[0].Attrs["fallback"] != 0 {
		t.Fatalf("serve.decode spans = %+v, want one under the handler span with bytes %d, items 2, fallback 0", dec, len(body))
	}
	if len(names["query.topkbatch"]) != 0 {
		t.Fatalf("batch index span present: %v", names)
	}
	items := names["item.topk"]
	if len(items) != 2 {
		t.Fatalf("item spans = %d, want 2", len(items))
	}
	for _, it := range items {
		if v, ok := it.Attrs["cached"]; !ok || v != 0 {
			t.Fatalf("item span cached attr = %v (present %v), want 0", v, ok)
		}
		if len(it.Children) != 1 || it.Children[0].Name != "query.topk" {
			t.Fatalf("item span children = %+v, want one query.topk", it.Children)
		}
	}
	if len(queries) != 2 {
		t.Fatalf("query annotations = %+v, want 2", queries)
	}
	for _, q := range queries {
		if q.Family != "topk" || q.Cell == 0 || q.Cached {
			t.Fatalf("query annotation = %+v, want an uncached topk with its cell", q)
		}
	}
}

// TestTraceparentAdoption: a caller-supplied W3C traceparent is adopted —
// the request records under the caller's trace id with the caller's span
// as the root's parent — and the response header names the server's span.
func TestTraceparentAdoption(t *testing.T) {
	srv := newServer(t)
	callerTrace := obs.NewTraceID()
	callerSpan := obs.NewSpanID()

	req := newTopKRequest(srv.URL)
	req.Header.Set("traceparent", obs.Traceparent(callerTrace, callerSpan))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	gotTrace, gotSpan, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || gotTrace != callerTrace {
		t.Fatalf("response traceparent %q, want trace %s", resp.Header.Get("traceparent"), callerTrace)
	}
	if gotSpan == callerSpan {
		t.Fatal("response span id echoes the caller's instead of the server root's")
	}

	var out traceOut
	getJSON(t, srv.URL+"/v1/admin/trace?n=10", &out)
	for _, tr := range out.Traces {
		if tr.TraceID == callerTrace.String() {
			if tr.Tree.ParentID != obs.SpanIDString(callerSpan) {
				t.Fatalf("root parent = %q, want caller span %s", tr.Tree.ParentID, obs.SpanIDString(callerSpan))
			}
			if tr.Tree.SpanID != obs.SpanIDString(gotSpan) {
				t.Fatalf("root span = %q, want %s (from response header)", tr.Tree.SpanID, obs.SpanIDString(gotSpan))
			}
			return
		}
	}
	t.Fatalf("trace %s not recorded", callerTrace)
}

// TestUnsampledTraceparentHonored: a caller that presents trace-flags 00
// explicitly opted out of recording. The W3C semantics are honored — the
// request is not traced, not recorded, does not answer a traceparent (which
// would falsely claim flags 01), and does not consume a head-sampling tick.
func TestUnsampledTraceparentHonored(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(ix, Config{}).Mux())
	defer srv.Close()

	caller := obs.NewTraceID()
	hdr := obs.Traceparent(caller, obs.NewSpanID())
	hdr = hdr[:len(hdr)-2] + "00" // clear the sampled flag
	req := newTopKRequest(srv.URL)
	req.Header.Set("traceparent", hdr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if tp := resp.Header.Get("traceparent"); tp != "" {
		t.Fatalf("unsampled request answered traceparent %q", tp)
	}

	// The opt-out did not burn the head-sampling budget: the next bare
	// request is still the handler's first sampled one.
	resp2, err := http.DefaultClient.Do(newTopKRequest(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("traceparent") == "" {
		t.Fatal("head sampling consumed by the unsampled caller")
	}

	var out traceOut
	getJSON(t, srv.URL+"/v1/admin/trace?n=100", &out)
	for _, tr := range out.Traces {
		if tr.TraceID == caller.String() {
			t.Fatal("explicitly unsampled trace was recorded")
		}
	}
}

// plainWriter hides any Flusher the embedded ResponseWriter may have.
type plainWriter struct{ http.ResponseWriter }

// TestStatusWriterForwardsFlush: the instrument wrapper must not swallow
// http.Flusher — streaming endpoints (the snapshot-shipping feed) rely on
// pushing bytes mid-response.
func TestStatusWriterForwardsFlush(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, status: http.StatusOK}
	var _ http.Flusher = sw
	sw.Flush()
	if !rec.Flushed {
		t.Fatal("Flush not forwarded to the underlying writer")
	}
	// A non-flushing underlying writer is a safe no-op.
	(&statusWriter{ResponseWriter: plainWriter{httptest.NewRecorder()}, status: 200}).Flush()
}

// TestInstrumentedStreamingFlush is the follower's-eye regression test: a
// client of an instrumented streaming endpoint must see flushed bytes
// while the handler is still running, not after the whole response
// buffered.
func TestInstrumentedStreamingFlush(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(ix, Config{})

	var (
		release  = make(chan struct{})
		once     sync.Once
		gaveUp   atomic.Bool
		flushers atomic.Int32
	)
	fn := h.instrument("/v1/stream", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "first\n")
		if f, ok := w.(http.Flusher); ok {
			flushers.Add(1)
			f.Flush()
		}
		<-release
		io.WriteString(w, "rest\n")
	})
	srv := httptest.NewServer(fn)
	defer srv.Close()
	// Watchdog: if the first chunk never arrives (Flush swallowed), unblock
	// the handler so the test fails instead of hanging.
	stop := time.AfterFunc(5*time.Second, func() {
		gaveUp.Store(true)
		once.Do(func() { close(release) })
	})
	defer stop.Stop()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || line != "first\n" {
		t.Fatalf("first chunk = %q, %v", line, err)
	}
	if gaveUp.Load() {
		t.Fatal("first chunk arrived only after the handler completed: Flush was swallowed")
	}
	if flushers.Load() == 0 {
		t.Fatal("instrumented writer does not implement http.Flusher")
	}
	once.Do(func() { close(release) })
	if rest, _ := io.ReadAll(br); string(rest) != "rest\n" {
		t.Fatalf("rest of stream = %q", rest)
	}
}

// TestQuietCanonicalLabels: quiet() speaks the same endpoint names
// instrument labels with — the route pattern — so scraper traffic is
// demoted, counts under its pattern, and stays out of the flight recorder;
// a path that is no route (the retired bare alias) counts under /404, never
// under a label of its own.
func TestQuietCanonicalLabels(t *testing.T) {
	if !quiet("/v1/metrics") || !quiet("/debug/pprof/heap") {
		t.Fatal("quiet() misses the scraper endpoints")
	}
	if quiet("/v1/query") {
		t.Fatal("quiet() demotes a real endpoint")
	}

	srv := newServer(t)
	for path, want := range map[string]int{"/v1/metrics": http.StatusOK, "/metrics": http.StatusNotFound} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s status %d, want %d", path, resp.StatusCode, want)
		}
		if want == http.StatusOK && resp.Header.Get("traceparent") != "" {
			t.Fatalf("%s was traced; scraper endpoints must stay out of the recorder", path)
		}
	}
	body := scrapeMetrics(t, srv.URL)
	if !strings.Contains(body, `tlx_http_requests_total{endpoint="/v1/metrics",code="200"}`) {
		t.Fatal("metrics endpoint not counted under its route pattern")
	}
	if !strings.Contains(body, `tlx_http_requests_total{endpoint="/404",code="404"}`) ||
		strings.Contains(body, `{endpoint="/metrics"`) {
		t.Fatal("an unrouted path must count under /404, not under a label of its own")
	}
	var out traceOut
	getJSON(t, srv.URL+"/v1/admin/trace?n=100", &out)
	for _, tr := range out.Traces {
		if tr.Endpoint == "/v1/metrics" {
			t.Fatal("scrape traffic entered the flight recorder")
		}
	}
}

// TestTraceAdminSmoke exercises the endpoint's parameters over HTTP the
// way make obs-smoke curls it.
func TestTraceAdminSmoke(t *testing.T) {
	srv := newServer(t)
	for i := 0; i < 5; i++ {
		if code, _ := postQuery(t, srv.URL, topkQuery); code != 200 {
			t.Fatalf("topk status %d", code)
		}
	}
	var out traceOut
	if code := getJSON(t, srv.URL+"/v1/admin/trace", &out); code != 200 {
		t.Fatalf("trace status %d", code)
	}
	if len(out.Traces) < 5 {
		t.Fatalf("recorder retained %d traces, want >= 5", len(out.Traces))
	}
	if out.SlowMs != 100 {
		t.Fatalf("default slow threshold = %vms", out.SlowMs)
	}
	// min_ms filters; an impossible threshold leaves nothing.
	var none traceOut
	getJSON(t, srv.URL+"/v1/admin/trace?min_ms=60000", &none)
	if len(none.Traces) != 0 {
		t.Fatalf("min_ms filter kept %d traces", len(none.Traces))
	}
	var byFam traceOut
	getJSON(t, srv.URL+"/v1/admin/trace?family=kspr", &byFam)
	if len(byFam.Traces) != 0 {
		t.Fatalf("family filter kept %d traces", len(byFam.Traces))
	}
	getJSON(t, srv.URL+"/v1/admin/trace?family=topk&n=2", &byFam)
	if len(byFam.Traces) != 2 {
		t.Fatalf("family+n returned %d traces", len(byFam.Traces))
	}
	if code := getJSON(t, srv.URL+"/v1/admin/trace?min_ms=banana", nil); code != 400 {
		t.Fatalf("bad min_ms status %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/admin/trace?min_ms=-1", nil); code != 400 {
		t.Fatalf("negative min_ms status %d", code)
	}
}

// TestRecorderDisabled: a negative TraceBuffer turns the flight recorder
// off — no response traceparent, and the admin endpoint answers an empty
// list rather than an error.
func TestRecorderDisabled(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(ix, Config{TraceBuffer: -1}).Mux())
	defer srv.Close()
	resp, err := http.DefaultClient.Do(newTopKRequest(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("traceparent") != "" {
		t.Fatal("disabled recorder still answered a traceparent")
	}
	var out traceOut
	if code := getJSON(t, srv.URL+"/v1/admin/trace", &out); code != 200 {
		t.Fatalf("trace status %d", code)
	}
	if len(out.Traces) != 0 {
		t.Fatalf("disabled recorder retained %d traces", len(out.Traces))
	}
}

// TestTraceSampling: the default config head-samples fresh traces at
// 1-in-DefaultTraceSample with the first request always in, and a negative
// TraceSample traces nothing but propagated traceparents — which bypass
// sampling at any rate.
func TestTraceSampling(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	do := func(srv *httptest.Server, traceparent string) *http.Response {
		t.Helper()
		req := newTopKRequest(srv.URL)
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	srv := httptest.NewServer(NewHandler(ix, Config{}).Mux())
	defer srv.Close()
	traced := 0
	for i := 0; i < DefaultTraceSample+1; i++ {
		if do(srv, "").Header.Get("traceparent") != "" {
			traced++
			if i != 0 && i != DefaultTraceSample {
				t.Fatalf("request %d sampled; want only the 1st and %dth", i, DefaultTraceSample+1)
			}
		}
	}
	if traced != 2 {
		t.Fatalf("sampled %d of %d requests, want 2", traced, DefaultTraceSample+1)
	}

	// Negative rate: no fresh traces, but a caller's traceparent still is.
	off := httptest.NewServer(NewHandler(ix, Config{TraceSample: -1}).Mux())
	defer off.Close()
	if tp := do(off, "").Header.Get("traceparent"); tp != "" {
		t.Fatalf("negative TraceSample started a fresh trace %q", tp)
	}
	caller := obs.NewTraceID()
	resp := do(off, obs.Traceparent(caller, obs.NewSpanID()))
	if got, _, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent")); !ok || got != caller {
		t.Fatalf("propagated traceparent not honored: %q", resp.Header.Get("traceparent"))
	}
	var out traceOut
	getJSON(t, off.URL+"/v1/admin/trace?n=10", &out)
	if len(out.Traces) != 1 || out.Traces[0].TraceID != caller.String() {
		t.Fatalf("recorder holds %+v, want exactly the propagated trace", out.Traces)
	}
}

// TestHotCellsAdminSmoke: clustered top-k traffic on one cell surfaces in
// the hot-cell sketch, with the answer cache on and off. The sketch ticks
// once per top-k answer, so 200 same-cell requests are sampled
// deterministically.
func TestHotCellsAdminSmoke(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, entries := range []int{0, -1} {
		srv := httptest.NewServer(NewHandler(ix, Config{CacheEntries: entries}).Mux())
		for i := 0; i < 200; i++ {
			if code, _ := postQuery(t, srv.URL, topkQuery); code != 200 {
				t.Fatalf("topk status %d", code)
			}
		}
		var out struct {
			SampleEvery int `json:"sampleEvery"`
			Cells       []struct {
				Cell  string `json:"cell"`
				Total uint64 `json:"total"`
			} `json:"cells"`
		}
		if code := getJSON(t, srv.URL+"/v1/admin/hotcells", &out); code != 200 {
			t.Fatalf("CacheEntries %d: hotcells status %d", entries, code)
		}
		if out.SampleEvery != obs.DefaultHotCellSample {
			t.Fatalf("CacheEntries %d: sampleEvery = %d", entries, out.SampleEvery)
		}
		if len(out.Cells) != 1 {
			t.Fatalf("CacheEntries %d: hot cells = %+v, want exactly the one clustered cell", entries, out.Cells)
		}
		// 200 answers at 1-in-64 sampling: ticks 64, 128, 192.
		c := out.Cells[0]
		if c.Total != 3 || len(c.Cell) != 16 {
			t.Fatalf("CacheEntries %d: sampled cell = %+v, want total 3 under a 16-hex-digit key", entries, c)
		}
		if code := getJSON(t, srv.URL+"/v1/admin/hotcells?n=banana", nil); code != 400 {
			t.Fatalf("bad n status %d", code)
		}
		srv.Close()
	}
}

// TestEncodeSpan: a traced query builds its response body inside a
// serve.encode span, a child of the handler span, carrying the body's bytes
// and, for a kSPR answer, the rows it wrote and the distinct rows it
// formatted. The hotels kSPR answer (focal 0, k=2) is two regions of 3 and
// 4 rows, two of which repeat. A body encoding/json refuses reports the
// bytes of the 500 error envelope that replaced it.
func TestEncodeSpan(t *testing.T) {
	srv := newServer(t)
	for _, c := range []struct {
		path, body         string
		rows, distinctRows float64 // 0: no kSPR body
	}{
		{"/v1/query", `{"family":"kspr","focal":0,"k":2}`, 7, 5},
		{"/v1/query", topkQuery, 0, 0},
		{"/v1/query", `{"family":"nosuch"}`, 0, 0},
		{"/v1/query/batch", `{"queries":[{"family":"kspr","focal":0,"k":2},` + topkQuery + `,{"family":"kspr","focal":0,"k":2}]}`, 14, 5},
	} {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		trace, root, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
		if !ok {
			t.Fatalf("%s: response traceparent %q does not parse", c.body, resp.Header.Get("traceparent"))
		}
		var out traceOut
		getJSON(t, srv.URL+"/v1/admin/trace?n=50", &out)
		var enc *obs.SpanNode
		for _, tr := range out.Traces {
			if tr.TraceID == trace.String() {
				for _, ch := range tr.Tree.Children {
					if ch.Name == "serve.encode" {
						enc = ch
					}
				}
			}
		}
		if enc == nil || enc.ParentID != obs.SpanIDString(root) {
			t.Fatalf("%s: no serve.encode span under the handler span %s (got %+v)", c.body, obs.SpanIDString(root), enc)
		}
		if enc.Attrs["bytes"] != float64(len(body)) {
			t.Fatalf("%s: bytes = %v, want %d", c.body, enc.Attrs["bytes"], len(body))
		}
		rows, hasRows := enc.Attrs["rows"]
		if hasRows != (c.rows > 0) || rows != c.rows || enc.Attrs["distinctRows"] != c.distinctRows {
			t.Fatalf("%s: attrs %v, want rows %v and distinctRows %v", c.body, enc.Attrs, c.rows, c.distinctRows)
		}
	}

	var spans []obs.Span
	sc := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID(),
		Tracer: obs.TracerFunc(func(s obs.Span) { spans = append(spans, s) })}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", nil).WithContext(obs.ContextWithSpan(context.Background(), sc))
	w := httptest.NewRecorder()
	refused := &ksprBody{Regions: []tlx.Region{{Halfspaces: []tlx.Halfspace{{A: []float64{1, math.NaN()}, B: 0}}}}}
	writeItems(w, req, []queryItem{{Result: refused, Stats: &queryStatsBody{}}}, false)
	if len(spans) != 1 || spans[0].Name != "serve.encode" || spans[0].Err == nil || w.Code != http.StatusInternalServerError {
		t.Fatalf("refused body: status %d, spans %+v", w.Code, spans)
	}
	if bytes, _ := spans[0].Get("bytes"); bytes != float64(w.Body.Len()) {
		t.Fatalf("refused body: bytes = %v, want the %d sent (%q)", bytes, w.Body.Len(), w.Body)
	}
}

// TestDecodeSpan: a traced /v1/query or /v1/query/batch decodes its body in
// a serve.decode span, a child of the handler span, carrying the body's
// bytes, the queries decoded and fallback 1 when encoding/json decided the
// body — an escape, or a body neither decoder takes, whose span carries the
// error.
func TestDecodeSpan(t *testing.T) {
	srv := newServer(t)
	for _, c := range []struct {
		path, body      string
		items, fallback float64
		failed          bool
	}{
		{"/v1/query", topkQuery, 1, 0, false},
		{"/v1/query", `{"family":"top\u006b","w":[0.18,0.82],"k":2}`, 1, 1, false},
		{"/v1/query/batch", `{"queries":[` + topkQuery + `,{"family":"maxrank","focal":0},{"family":"nosuch"}]}`, 3, 0, false},
		{"/v1/query/batch", `{"queries":[{"family":"maxrank","focal":0}],"note":"x"}`, 1, 1, false},
		{"/v1/query", `{"family":"topk","w":[0.5,`, 0, 1, true},
	} {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if want := map[bool]int{false: 200, true: 400}[c.failed]; resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", c.body, resp.StatusCode, want)
		}
		trace, root, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
		if !ok {
			t.Fatalf("%s: response traceparent %q does not parse", c.body, resp.Header.Get("traceparent"))
		}
		var out traceOut
		getJSON(t, srv.URL+"/v1/admin/trace?n=50", &out)
		var dec *obs.SpanNode
		for _, tr := range out.Traces {
			if tr.TraceID == trace.String() {
				for _, ch := range tr.Tree.Children {
					if ch.Name == "serve.decode" {
						dec = ch
					}
				}
			}
		}
		if dec == nil || dec.ParentID != obs.SpanIDString(root) {
			t.Fatalf("%s: no serve.decode span under the handler span (got %+v)", c.body, dec)
		}
		if dec.Attrs["bytes"] != float64(len(c.body)) || dec.Attrs["items"] != c.items ||
			dec.Attrs["fallback"] != c.fallback || (dec.Err != "") != c.failed {
			t.Fatalf("%s: attrs %v err %q, want bytes %d, items %v, fallback %v, failed %v",
				c.body, dec.Attrs, dec.Err, len(c.body), c.items, c.fallback, c.failed)
		}
	}
}
