package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	tlx "tlevelindex"
)

// batchItemOut mirrors batchResponseItem with a decoded topk result.
type batchItemOut struct {
	Result json.RawMessage `json:"result"`
	Stats  *queryStatsBody `json:"stats"`
	Cached bool            `json:"cached"`
	LSN    uint64          `json:"lsn"`
	Error  string          `json:"error"`
	Status int             `json:"status"`
}

// jsonEqual compares two JSON documents structurally: the batch envelope
// nests results one level deeper than /v1/query, so indentation differs.
func jsonEqual(t *testing.T, a, b json.RawMessage) bool {
	t.Helper()
	var av, bv any
	if err := json.Unmarshal(a, &av); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bv); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(av, bv)
}

func postBatch(t *testing.T, url string, body string) (int, []batchItemOut) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var out struct {
		Results []batchItemOut `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Results
}

// TestBatchEndpointMatchesSingle: every per-item answer of the batch
// envelope must be byte-identical to the single-query endpoint's result
// object, across families, and per-item failures must not fail neighbors.
func TestBatchEndpointMatchesSingle(t *testing.T) {
	srv := newServer(t)
	queries := []string{
		`{"family":"topk","w":[0.18,0.82],"k":2}`,
		`{"family":"topk","w":[0.7,0.3],"k":2}`,
		`{"family":"topk","w":[0.18,0.82],"k":3}`,
		`{"family":"kspr","focal":0,"k":2}`,
		`{"family":"maxrank","focal":3}`,
		`{"family":"topk","w":[0.9,0.9],"k":2}`, // invalid weights: per-item 400
		`{"family":"nosuch"}`,                   // unknown family: per-item 400
		`{"family":"kspr","k":2}`,               // missing focal: per-item 400
	}
	code, items := postBatch(t, srv.URL, `{"queries":[`+strings.Join(queries, ",")+`]}`)
	if code != http.StatusOK || len(items) != len(queries) {
		t.Fatalf("status %d, %d items", code, len(items))
	}
	for i, q := range queries[:5] {
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		var single struct {
			Result json.RawMessage `json:"result"`
			Stats  queryStatsBody  `json:"stats"`
			LSN    uint64          `json:"lsn"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&single); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !jsonEqual(t, items[i].Result, single.Result) {
			t.Fatalf("item %d: batch result %s != single %s", i, items[i].Result, single.Result)
		}
		if items[i].Error != "" || *items[i].Stats != single.Stats || items[i].LSN != single.LSN {
			t.Fatalf("item %d: %+v vs single stats %+v", i, items[i], single.Stats)
		}
	}
	for i := 5; i < 8; i++ {
		if items[i].Status != http.StatusBadRequest || items[i].Error == "" || items[i].Result != nil {
			t.Fatalf("item %d: want per-item 400, got %+v", i, items[i])
		}
	}
}

// TestBatchEndpointCacheCollapse: same-cell top-k items in one batch get
// identical answers, each walked rather than cached, and a cached family's
// item (UTK) fills the cache on the first envelope and hits on the second.
func TestBatchEndpointCacheCollapse(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(ix, Config{})
	srv := httptest.NewServer(h.Mux())
	defer srv.Close()
	// Three distinct weight vectors inside one cell chain, one from another
	// cell, and a UTK item; k fixed.
	body := `{"queries":[
		{"family":"topk","w":[0.18,0.82],"k":2},
		{"family":"topk","w":[0.19,0.81],"k":2},
		{"family":"topk","w":[0.17,0.83],"k":2},
		{"family":"topk","w":[0.7,0.3],"k":2},
		{"family":"utk","lo":[0.35],"hi":[0.45],"k":2}]}`
	const utk = 4
	code, items := postBatch(t, srv.URL, body)
	if code != http.StatusOK || len(items) != 5 {
		t.Fatalf("status %d, %d items", code, len(items))
	}
	for i, it := range items {
		if it.Cached || it.Error != "" {
			t.Fatalf("first pass item %d: %+v, want a fresh answer", i, it)
		}
	}
	for i := 1; i < 3; i++ {
		if !bytes.Equal(items[0].Result, items[i].Result) || *items[0].Stats != *items[i].Stats {
			t.Fatalf("shared cell, different answers: %s %+v vs %s %+v",
				items[0].Result, *items[0].Stats, items[i].Result, *items[i].Stats)
		}
	}
	// Re-issuing the batch hits the cache for the UTK item only; every
	// answer is byte-identical to the first pass.
	_, again := postBatch(t, srv.URL, body)
	for i, it := range again {
		if it.Cached != (i == utk) {
			t.Fatalf("second pass item %d: cached=%v", i, it.Cached)
		}
		if !bytes.Equal(it.Result, items[i].Result) || *it.Stats != *items[i].Stats {
			t.Fatalf("second pass item %d differs from the first", i)
		}
	}
}

// TestBatchEndpointLimits: malformed body, empty batch, and an oversized
// batch fail the whole request.
func TestBatchEndpointLimits(t *testing.T) {
	srv := newServer(t)
	if code, _ := postBatch(t, srv.URL, `{"queries":`); code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", code)
	}
	if code, _ := postBatch(t, srv.URL, `{"queries":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i <= maxBatchQueries; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"family":"maxrank","focal":0}`)
	}
	sb.WriteString(`]}`)
	if code, _ := postBatch(t, srv.URL, sb.String()); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", code)
	}
	// Wrong method gets the uniform 405.
	resp, err := http.Get(srv.URL + "/v1/query/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d", resp.StatusCode)
	}
}

// TestBatchEndpointLSNInvalidation: an insert bumps the LSN and the next
// batch recomputes instead of serving stale answers.
func TestBatchEndpointLSNInvalidation(t *testing.T) {
	srv := newServer(t)
	body := `{"queries":[{"family":"utk","lo":[0.35],"hi":[0.45],"k":2}]}`
	_, first := postBatch(t, srv.URL, body)
	if _, warm := postBatch(t, srv.URL, body); !warm[0].Cached {
		t.Fatal("repeat before the insert missed the cache")
	}
	resp, err := http.Post(srv.URL+"/v1/insert", "application/json",
		strings.NewReader(`{"option":[0.95,0.95]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, after := postBatch(t, srv.URL, body)
	if after[0].Cached {
		t.Fatal("post-insert batch served a stale cache entry")
	}
	if after[0].LSN != first[0].LSN+1 {
		t.Fatalf("lsn %d, want %d", after[0].LSN, first[0].LSN+1)
	}
}

// FuzzBatchEnvelope hardens the batch envelope decoder: arbitrary client
// bytes must produce a well-formed JSON response with a sane status, never
// a panic. The handler and its index are built once; the fuzz target only
// exercises decode/validate/dispatch.
func FuzzBatchEnvelope(f *testing.F) {
	f.Add(`{"queries":[{"family":"topk","w":[0.18,0.82],"k":2}]}`)
	f.Add(`{"queries":[]}`)
	f.Add(`{"queries":[{"family":"nosuch"},{"family":"kspr","k":-3},{"family":"topk","w":[1e308,-1e308]}]}`)
	f.Add(`{"queries":[{"family":"topk","w":[0.5,"x"]}]}`)
	f.Add(`{"queries":{"family":"topk"}}`)
	f.Add(`[`)
	f.Add(`{"queries":[{"family":"utk","lo":[0.1],"hi":[0.2],"k":1},{"family":"maxrank","focal":0}]}`)
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		f.Fatal(err)
	}
	mux := NewHandler(ix, Config{}).Mux()
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/query/batch", strings.NewReader(body))
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusOK && w.Code != http.StatusBadRequest {
			t.Fatalf("status %d for %q", w.Code, body)
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("invalid JSON response for %q", body)
		}
	})
}

// BenchmarkServeQueryBatchTopK is the batch row of BENCH_serve.json: a
// 64-item clustered top-k batch through the full handler stack, reported
// per item. Every item is walked as a single query would be, so comparing
// with BenchmarkServeTopK gives the per-request envelope overhead (HTTP
// handling, decode, encode, lock) that the batch amortizes.
func BenchmarkServeQueryBatchTopK(b *testing.B) {
	mux := NewHandler(serveBenchIndex(b), Config{}).Mux()
	const batch = 64
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i < batch; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		// Four tight preference profiles with per-item jitter: clustered
		// traffic.
		c := [4][3]float64{{0.31, 0.27, 0.42}, {0.6, 0.2, 0.2}, {0.1, 0.5, 0.4}, {0.25, 0.35, 0.4}}[i%4]
		j := float64(i/4) * 0.0005
		fmt.Fprintf(&sb, `{"family":"topk","w":[%g,%g,%g],"k":4}`, c[0]+j, c[1]-j, c[2])
	}
	sb.WriteString(`]}`)
	body := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		req := httptest.NewRequest(http.MethodPost, "/v1/query/batch", strings.NewReader(body))
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}
