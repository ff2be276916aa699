package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/internal/obs"
)

// expositionLine matches one sample line of the classic Prometheus text
// format (version 0.0.4): a metric name, optional {labels}, and a value —
// no exemplars, which that format has no syntax for.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [^ ]+$`)

// openMetricsLine additionally allows the OpenMetrics exemplar suffix
// (` # {trace_id="..."} <value>`) that histogram +Inf buckets emit for the
// window's worst traced request.
var openMetricsLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [^ ]+( # \{trace_id="[0-9a-f]{32}"\} [^ ]+)?$`)

// scrapeMetrics fetches /v1/metrics without content negotiation, validates
// every line parses as classic 0.0.4 text exposition — in particular that
// no exemplar leaks into the format, which strict scrapers would fail the
// whole scrape over — and returns the full body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unexpected comment line %q", line)
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("line does not parse as text exposition: %q", line)
		}
	}
	return body
}

// scrapeOpenMetrics fetches /v1/metrics negotiating the OpenMetrics
// exposition via the Accept header, validates every line (exemplars
// allowed) and the mandatory # EOF trailer, and returns the full body.
func scrapeOpenMetrics(t *testing.T, base string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("negotiated Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Error("OpenMetrics exposition missing the # EOF trailer")
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line == "# EOF" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unexpected comment line %q", line)
			continue
		}
		if !openMetricsLine.MatchString(line) {
			t.Errorf("line does not parse as OpenMetrics exposition: %q", line)
		}
	}
	return body
}

// TestMetricsEndpoint is the obs smoke test (make obs-smoke): after real
// traffic against a store-backed server, /v1/metrics must return valid
// Prometheus text exposition containing every metric family the issue
// promises — request latency, per-query-type traversal counters, WAL
// fsync latency, and runtime gauges.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newStoreServer(t, t.TempDir())

	if code, _ := postQuery(t, srv.URL, `{"family":"topk","w":[0.18,0.82],"k":2}`); code != 200 {
		t.Fatalf("topk status %d", code)
	}
	if code, _ := postQuery(t, srv.URL, `{"family":"kspr","focal":0,"k":2}`); code != 200 {
		t.Fatalf("kspr status %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/insert", `{"option":[0.95,0.95]}`, nil); code != 200 {
		t.Fatalf("insert failed")
	}
	// Batched insert load: three options (two fresh, one duplicate) through
	// one envelope — one fsync group of three records on top of the single
	// insert's group of one.
	if code := postJSON(t, srv.URL+"/v1/insert/batch",
		`{"options":[[0.96,0.9],[0.9,0.96],[0.95,0.95]]}`, nil); code != 200 {
		t.Fatalf("batch insert failed")
	}

	body := scrapeMetrics(t, srv.URL)
	required := []string{
		`tlx_http_requests_total{endpoint="/v1/query",code="200"}`,
		`tlx_http_request_seconds_bucket{endpoint="/v1/query",le="+Inf"}`,
		`tlx_query_visited_cells_total{query="topk"}`,
		`tlx_query_lp_calls_total{query="kspr"}`,
		"tlx_wal_append_seconds_bucket",
		"tlx_wal_fsync_seconds_bucket",
		"tlx_wal_ack_seconds_count 2",
		"tlx_wal_appends_total 4",
		"tlx_wal_fsyncs_total 2",
		"tlx_wal_group_size_count 2",
		"tlx_insert_batch_records_total 3",
		"tlx_snapshot_bytes",
		"tlx_store_applied_lsn 4",
		"tlx_lp_solves_total",
		"tlx_lp_pivots_total",
		"tlx_lp_budget_exhausted_total",
		"tlx_projection_calls_total",
		"tlx_projection_iterations_total",
		`tlx_witness_fastpath_total{kind="settle"}`,
		"tlx_runtime_heap_bytes",
		"tlx_runtime_goroutines",
		"tlx_runtime_gc_pause_seconds_total",
	}
	for _, want := range required {
		if !strings.Contains(body, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
	// The first topk request was head-sampled, so an exemplar is pending:
	// it must stay out of the classic exposition (scrapeMetrics verified
	// line shapes above) and surface on the negotiated OpenMetrics one,
	// which links /v1/metrics to the flight recorder.
	om := scrapeOpenMetrics(t, srv.URL)
	if !strings.Contains(om, `trace_id="`) {
		t.Error("OpenMetrics exposition is missing the worst-trace exemplar")
	}
	for _, want := range required {
		if !strings.Contains(om, want) {
			t.Errorf("OpenMetrics exposition is missing %q", want)
		}
	}
}

// TestMetricNamesLint walks every registered metric after the full handler
// surface has been constructed and asserts each name is a legal Prometheus
// metric name — the registry-level guard the Makefile's obs-smoke target
// relies on.
func TestMetricNamesLint(t *testing.T) {
	newStoreServer(t, t.TempDir()) // registers the full instrument set
	names := obs.Default().Names()
	if len(names) == 0 {
		t.Fatal("no metrics registered")
	}
	for _, name := range names {
		if !obs.ValidMetricName(name) {
			t.Errorf("registered metric %q violates the Prometheus naming convention", name)
		}
		if !strings.HasPrefix(name, "tlx_") {
			t.Errorf("registered metric %q is missing the tlx_ prefix", name)
		}
	}
}

// TestPprofOptIn: the profiling endpoints exist only with Config.Pprof.
func TestPprofOptIn(t *testing.T) {
	plain := newServer(t)
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status %d, want 404", resp.StatusCode)
	}

	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(ix, Config{Pprof: true}).Mux())
	defer srv.Close()
	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with opt-in: status %d, want 200", resp.StatusCode)
	}
}

// TestCanceledQueryIs499: a client that is already gone when the handler
// runs maps to the nginx-style 499 with the JSON error envelope, and the
// partial traversal stats still feed the query counters.
func TestCanceledQueryIs499(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	mux := NewHandler(ix, Config{}).Mux()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(`{"family":"topk","w":[0.18,0.82],"k":2}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != statusCanceled {
		t.Fatalf("canceled query status = %d, want %d", rec.Code, statusCanceled)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
		t.Errorf("canceled query envelope = %q (decode err %v)", rec.Body.String(), err)
	}
}
