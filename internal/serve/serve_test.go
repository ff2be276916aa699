package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/internal/store"
)

var hotels = [][]float64{
	{0.62, 0.76}, {0.90, 0.48}, {0.73, 0.33}, {0.26, 0.64}, {0.30, 0.24},
}

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	// TraceSample 1: the trace tests drive a handful of requests and expect
	// every one of them in the flight recorder, not a 1-in-64 sample.
	srv := httptest.NewServer(NewHandler(ix, Config{TraceSample: 1}).Mux())
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// queryResult posts one /v1/query body and, on 200, decodes the envelope's
// result object into out and returns its stats.
func queryResult(t *testing.T, base, body string, out any) (int, queryStatsBody) {
	t.Helper()
	code, env := postQuery(t, base, body)
	var stats queryStatsBody
	if code == http.StatusOK {
		if err := json.Unmarshal(env.Result, out); err != nil {
			t.Fatalf("decode result of %s: %v", body, err)
		}
		if err := json.Unmarshal(env.Stats, &stats); err != nil {
			t.Fatalf("decode stats of %s: %v", body, err)
		}
	}
	return code, stats
}

func TestTopKEndpoint(t *testing.T) {
	srv := newServer(t)
	var body struct {
		Options []int `json:"options"`
	}
	code, _ := queryResult(t, srv.URL, `{"family":"topk","w":[0.18,0.82],"k":2}`, &body)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(body.Options) != 2 || body.Options[0] != 0 || body.Options[1] != 3 {
		t.Errorf("topk = %v, want [0 3]", body.Options)
	}
}

func TestKSPREndpoint(t *testing.T) {
	srv := newServer(t)
	var body struct {
		Regions []tlx.Region `json:"regions"`
	}
	code, stats := queryResult(t, srv.URL, `{"family":"kspr","focal":0,"k":2}`, &body)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// One column entry read per region (the paper's walk visits 5 cells).
	if len(body.Regions) != 2 || stats.VisitedCells != 2 {
		t.Errorf("kspr: %d regions, %d visited", len(body.Regions), stats.VisitedCells)
	}
}

func TestUTKEndpoint(t *testing.T) {
	srv := newServer(t)
	var body struct {
		Options    []int   `json:"options"`
		Partitions [][]int `json:"partitionTopKSets"`
	}
	if code, _ := queryResult(t, srv.URL, `{"family":"utk","lo":[0.35],"hi":[0.45],"k":3}`, &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if fmt.Sprint(body.Options) != "[0 1 2 3]" || len(body.Partitions) != 2 {
		t.Errorf("utk: %v / %v", body.Options, body.Partitions)
	}
}

func TestORUEndpoint(t *testing.T) {
	srv := newServer(t)
	var body struct {
		Options []int   `json:"options"`
		Rho     float64 `json:"rho"`
	}
	if code, _ := queryResult(t, srv.URL, `{"family":"oru","w":[0.3,0.7],"k":2,"m":3}`, &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(body.Options) != 3 || body.Rho < 0.09 || body.Rho > 0.11 {
		t.Errorf("oru: %v rho=%v", body.Options, body.Rho)
	}
}

func TestMaxRankAndWhyNotEndpoints(t *testing.T) {
	srv := newServer(t)
	var mr struct {
		Rank int `json:"rank"`
	}
	if code, _ := queryResult(t, srv.URL, `{"family":"maxrank","focal":4}`, &mr); code != http.StatusOK || mr.Rank != -1 {
		t.Errorf("maxrank: code=%d rank=%d", code, mr.Rank)
	}
	var wn struct {
		Rank       int       `json:"Rank"`
		InTopK     bool      `json:"InTopK"`
		MinShift   float64   `json:"MinShift"`
		SuggestedW []float64 `json:"SuggestedW"`
	}
	if code, _ := queryResult(t, srv.URL, `{"family":"whynot","focal":0,"w":[0.9,0.1],"k":2}`, &wn); code != http.StatusOK {
		t.Fatalf("whynot status %d", code)
	}
	if wn.Rank != 3 || wn.InTopK || len(wn.SuggestedW) != 2 {
		t.Errorf("whynot: %+v", wn)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newServer(t)
	var body struct {
		Tau      int `json:"tau"`
		NumCells int `json:"numCells"`
	}
	if code := getJSON(t, srv.URL+"/v1/stats", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body.Tau != 3 || body.NumCells != 11 {
		t.Errorf("stats: %+v", body)
	}
}

func TestBadRequests(t *testing.T) {
	srv := newServer(t)
	cases := []string{
		`{"family":"topk","k":2}`,                      // missing w
		`{"family":"topk","w":"abc","k":2}`,            // bad vector
		`{"family":"topk","w":[0.5,0.5],"k":"zero"}`,   // bad int
		`{"family":"topk","w":[0.9,0.3],"k":2}`,        // non-normalized weights
		`{"family":"kspr","k":2}`,                      // missing focal
		`{"family":"utk","lo":[0.5],"hi":[0.2],"k":2}`, // inverted box
		`{"family":"utk","hi":[0.4],"k":2}`,            // missing lo
		`{"family":"oru","w":[0.3,0.7],"k":2,"m":-1}`,  // bad m
		`{"family":"whynot","focal":0,"k":2}`,          // missing w
		`{"family":"maxrank"}`,                         // missing focal
	}
	for _, body := range cases {
		if code, _ := postQuery(t, srv.URL, body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, code)
		}
	}
}

// TestConcurrentQueries hammers the handler from many goroutines; queries
// only read, so they all share the read lock. Run under -race.
func TestConcurrentQueries(t *testing.T) {
	srv := newServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := `{"family":"topk","w":[0.18,0.82],"k":3}`
				if g%2 == 0 {
					body = `{"family":"kspr","focal":0,"k":2}`
				}
				if !postOK(t, srv.URL+"/v1/query", body) {
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRoutes lists every (method, path) each constructor's mux serves: a
// request with the right method must reach its handler (any answer but the
// 404/405 envelopes), the other method must answer 405 naming the right one
// in Allow, and everything else — another mode's admin routes, the retired
// bare aliases and GET family routes — the JSON 404 envelope.
func TestRoutes(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: t.TempDir(), Logger: testLogger(t)},
		func() (*tlx.Index, error) { return tlx.Build(hotels, 3) })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	type route struct{ method, path string }
	common := []route{
		{"POST", "/v1/query"}, {"POST", "/v1/query/batch"},
		{"POST", "/v1/insert"}, {"POST", "/v1/insert/batch"},
		{"GET", "/v1/stats"}, {"GET", "/v1/metrics"},
		{"GET", "/v1/admin/trace"}, {"GET", "/v1/admin/hotcells"},
	}
	storeOnly := []route{
		{"POST", "/v1/admin/snapshot"}, {"GET", "/v1/admin/status"}, {"GET", "/v1/admin/snapshot/stream"},
	}
	followerOnly := []route{{"GET", "/v1/admin/status"}}
	retired := []route{
		{"GET", "/topk"}, {"POST", "/query"}, {"GET", "/stats"}, {"POST", "/insert"}, {"GET", "/metrics"},
		{"GET", "/v1/topk"}, {"GET", "/v1/kspr"}, {"GET", "/v1/utk"},
		{"GET", "/v1/oru"}, {"GET", "/v1/maxrank"}, {"GET", "/v1/whynot"},
	}
	for _, mode := range []struct {
		name           string
		h              *Handler
		served, absent []route
	}{
		{"memory", NewHandler(ix, Config{}), common, storeOnly},
		{"store", NewStoreHandler(st, Config{}), append(common[:len(common):len(common)], storeOnly...), nil},
		{"follower", NewFollowerHandler(&fakeFollower{ix: ix}, Config{}),
			append(common[:len(common):len(common)], followerOnly...), []route{storeOnly[0], storeOnly[2]}},
	} {
		if got := len(mode.h.routes); got != len(mode.served) {
			t.Errorf("%s: %d routes registered, want %d", mode.name, got, len(mode.served))
		}
		mux := mode.h.Mux()
		do := func(method, path string) (int, string, string) {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader("{}")))
			var env errorBody
			if w.Code == http.StatusNotFound || w.Code == http.StatusMethodNotAllowed {
				if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
					t.Errorf("%s %s %s: %d without the JSON envelope: %s", mode.name, method, path, w.Code, w.Body)
				}
			}
			return w.Code, w.Header().Get("Allow"), env.Error
		}
		for _, rt := range mode.served {
			if code, _, _ := do(rt.method, rt.path); code == http.StatusNotFound || code == http.StatusMethodNotAllowed {
				t.Errorf("%s: %s %s answered %d", mode.name, rt.method, rt.path, code)
			}
			other := map[string]string{"GET": "POST", "POST": "GET"}[rt.method]
			if code, allow, msg := do(other, rt.path); code != http.StatusMethodNotAllowed || allow != rt.method || msg == "" {
				t.Errorf("%s: %s %s answered %d Allow=%q %q, want 405 Allow=%s",
					mode.name, other, rt.path, code, allow, msg, rt.method)
			}
		}
		for _, rt := range append(retired[:len(retired):len(retired)], mode.absent...) {
			if code, _, msg := do(rt.method, rt.path); code != http.StatusNotFound || !strings.HasPrefix(msg, "no such endpoint") {
				t.Errorf("%s: %s %s answered %d %q, want the 404 envelope", mode.name, rt.method, rt.path, code, msg)
			}
		}
	}
}

// postOK posts body and reports whether the answer was a 200; safe off the
// test goroutine (it reports with t.Error, never t.Fatal).
func postOK(t *testing.T, url, body string) bool {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d from %s %s", resp.StatusCode, url, body)
		return false
	}
	return true
}

func postJSON(t *testing.T, url, body string, out interface{}) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestInsertEndpoint covers the POST /v1/insert surface: a successful
// insert, a filtered option, method enforcement, and an insert after a
// query past τ was refused with 422.
func TestInsertEndpoint(t *testing.T) {
	srv := newServer(t)
	var ins struct {
		ID int `json:"id"`
	}
	if code := postJSON(t, srv.URL+"/v1/insert", `{"option":[0.95,0.95]}`, &ins); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}
	if ins.ID != 5 {
		t.Errorf("inserted id = %d, want 5", ins.ID)
	}
	// The new option dominates everything: top-1 everywhere.
	var top struct {
		Options []int `json:"options"`
	}
	if code, _ := queryResult(t, srv.URL, `{"family":"topk","w":[0.5,0.5],"k":1}`, &top); code != http.StatusOK {
		t.Fatal("topk after insert failed")
	}
	if len(top.Options) != 1 || top.Options[0] != ins.ID {
		t.Errorf("top-1 after insert = %v", top.Options)
	}
	// A hopeless option is filtered: id -1, no error.
	if code := postJSON(t, srv.URL+"/v1/insert", `{"option":[0.01,0.01]}`, &ins); code != http.StatusOK || ins.ID != -1 {
		t.Errorf("filtered insert: code=%d id=%d", code, ins.ID)
	}
	// Malformed bodies are 400.
	if code := postJSON(t, srv.URL+"/v1/insert", `{"option":`, nil); code != http.StatusBadRequest {
		t.Errorf("truncated body: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/insert", `{}`, nil); code != http.StatusBadRequest {
		t.Errorf("empty option: status %d", code)
	}
	// GET on a POST endpoint is 405, and vice versa.
	if code := getJSON(t, srv.URL+"/v1/insert", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET insert: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/stats", "", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("POST stats: status %d", code)
	}
	// A query past τ is refused and changes nothing: inserts still land.
	if code, _ := postQuery(t, srv.URL, `{"family":"topk","w":[0.5,0.5],"k":4}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("deep topk: status %d, want 422", code)
	}
	if code := postJSON(t, srv.URL+"/v1/insert", `{"option":[0.9,0.9]}`, &ins); code != http.StatusOK || ins.ID != 6 {
		t.Errorf("insert after a refused deep query: status %d, id %d", code, ins.ID)
	}
}

// TestConcurrentReadersAndInserts hammers the handler with concurrent
// queries and inserts; the read/write lock must keep them consistent. Run
// under -race.
func TestConcurrentReadersAndInserts(t *testing.T) {
	srv := newServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				body := [3]string{
					`{"family":"topk","w":[0.18,0.82],"k":2}`,
					`{"family":"kspr","focal":0,"k":2}`,
					`{"family":"maxrank","focal":1}`,
				}[g%3]
				if !postOK(t, srv.URL+"/v1/query", body) {
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if !postOK(t, srv.URL+"/v1/insert", fmt.Sprintf(`{"option":[0.8,%0.2f]}`, 0.8+float64(i)/100)) {
				return
			}
		}
	}()
	wg.Wait()
}
