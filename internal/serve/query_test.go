package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	tlx "tlevelindex"
)

// envelope mirrors the /v1/query response with the result and stats kept
// raw so tests can compare exact bytes.
type envelope struct {
	Result json.RawMessage `json:"result"`
	Stats  json.RawMessage `json:"stats"`
	Cached bool            `json:"cached"`
	LSN    uint64          `json:"lsn"`
}

func postQuery(t *testing.T, url, body string) (int, envelope) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decode envelope for %s: %v", body, err)
		}
	}
	return resp.StatusCode, env
}

// TestQueryEnvelope drives every family through POST /v1/query and checks
// the envelope carries the pinned answers, plus the cached flag on an
// identical repeat: true for the three cached families, false for top-k,
// which is always answered by its walk, and for kSPR and MaxRank, always
// column reads.
func TestQueryEnvelope(t *testing.T) {
	srv := newServer(t)
	cases := []struct {
		body   string
		result string // substring of the result object
		cached bool   // the repeat is a cache hit
	}{
		{`{"family":"topk","w":[0.18,0.82],"k":2}`, `"options":[0,3]`, false},
		{`{"family":"kspr","focal":0,"k":2}`, `"regions":[`, false},
		{`{"family":"utk","lo":[0.35],"hi":[0.45],"k":3}`, `"options":[0,1,2,3]`, true},
		{`{"family":"oru","w":[0.3,0.7],"k":2,"m":3}`, `"rho":`, true},
		{`{"family":"maxrank","focal":4}`, `"rank":-1`, false},
		{`{"family":"whynot","focal":0,"w":[0.9,0.1],"k":2}`, `"Rank":3`, true},
	}
	for _, c := range cases {
		code, env := postQuery(t, srv.URL, c.body)
		if code != http.StatusOK {
			t.Errorf("%s: status %d", c.body, code)
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, env.Result); err != nil {
			t.Fatalf("%s: result not JSON: %v", c.body, err)
		}
		if !strings.Contains(compact.String(), c.result) {
			t.Errorf("%s: result %s, want substring %s", c.body, compact.String(), c.result)
		}
		if env.Cached {
			t.Errorf("%s: first request already cached", c.body)
		}
		if env.LSN != 0 {
			t.Errorf("%s: lsn = %d before any insert", c.body, env.LSN)
		}
		var stats queryStatsBody
		if err := json.Unmarshal(env.Stats, &stats); err != nil {
			t.Errorf("%s: stats not decodable: %v", c.body, err)
		}
		// Repeat: the answer must be byte-identical to the first, whether it
		// came from the cache or from a second walk.
		code2, env2 := postQuery(t, srv.URL, c.body)
		if code2 != http.StatusOK || env2.Cached != c.cached {
			t.Errorf("%s: repeat code=%d cached=%v, want 200/%v", c.body, code2, env2.Cached, c.cached)
		}
		if !bytes.Equal(env.Result, env2.Result) || !bytes.Equal(env.Stats, env2.Stats) {
			t.Errorf("%s: repeat differs: %s / %s vs %s / %s",
				c.body, env.Result, env.Stats, env2.Result, env2.Stats)
		}
	}
}

// TestQueryEnvelopeTopKSharesCellChain pins what the cell chain means to the
// serving tier now that top-k answers are not cached: two different weight
// vectors inside one cell chain get byte-identical result and stats objects,
// both walked rather than cached, and their traces name the same cell.
func TestQueryEnvelopeTopKSharesCellChain(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := []float64{0.18, 0.82}, []float64{0.19, 0.81}
	k1, _, err := ix.LocateDepth(w1, 2)
	if err != nil {
		t.Fatal(err)
	}
	k2, _, err := ix.LocateDepth(w2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Skip("fixture drift: the two probe vectors no longer share a cell chain")
	}
	srv := httptest.NewServer(NewHandler(ix, Config{TraceSample: 1}).Mux())
	t.Cleanup(srv.Close)
	code1, env1 := postQuery(t, srv.URL, `{"family":"topk","w":[0.18,0.82],"k":2}`)
	code2, env2 := postQuery(t, srv.URL, `{"family":"topk","w":[0.19,0.81],"k":2}`)
	if code1 != 200 || code2 != 200 || env1.Cached || env2.Cached {
		t.Fatalf("codes %d/%d cached %v/%v, want 200/200 false/false", code1, code2, env1.Cached, env2.Cached)
	}
	if !bytes.Equal(env1.Result, env2.Result) || !bytes.Equal(env1.Stats, env2.Stats) {
		t.Fatalf("same cell chain, different answers: %s / %s vs %s / %s",
			env1.Result, env1.Stats, env2.Result, env2.Stats)
	}
	var out traceOut
	if code := getJSON(t, srv.URL+"/v1/admin/trace?family=topk", &out); code != 200 {
		t.Fatalf("admin/trace status %d", code)
	}
	if len(out.Traces) != 2 {
		t.Fatalf("retained %d top-k traces, want 2", len(out.Traces))
	}
	for _, tr := range out.Traces {
		if len(tr.Queries) != 1 || uint64(tr.Queries[0].Cell) != k1.Sum64() {
			t.Fatalf("trace annotations %+v, want one query at cell %016x", tr.Queries, k1.Sum64())
		}
	}
}

// TestQueryEnvelopeErrors pins the failure surface of POST /v1/query.
func TestQueryEnvelopeErrors(t *testing.T) {
	srv := newServer(t)
	cases := []struct {
		body string
		code int
		msg  string
	}{
		{`{"family":"sky","w":[0.5,0.5]}`, http.StatusBadRequest, "unknown query family"},
		{`{"family":"kspr","k":2}`, http.StatusBadRequest, `missing parameter "focal"`},
		{`{"family":"topk","w":[0.9,0.3],"k":2}`, http.StatusBadRequest, "weights"},
		{`{"family":`, http.StatusBadRequest, "bad query body"},
	}
	for _, c := range cases {
		code, msg := doEnvelope(t, http.MethodPost, srv.URL+"/v1/query", c.body)
		if code != c.code || !strings.Contains(msg, c.msg) {
			t.Errorf("%s: code=%d msg=%q, want %d containing %q", c.body, code, msg, c.code, c.msg)
		}
	}
	// GET on the POST-only endpoint: 405 with Allow.
	resp, err := http.Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /v1/query: code=%d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestQueryEnvelopeLSN checks the envelope's lsn advances with acked
// inserts and that a post-insert repeat is a fresh (uncached) answer.
func TestQueryEnvelopeLSN(t *testing.T) {
	srv := newServer(t)
	const q = `{"family":"utk","lo":[0.35],"hi":[0.45],"k":2}`
	if _, env := postQuery(t, srv.URL, q); env.LSN != 0 {
		t.Fatalf("pre-insert lsn = %d", env.LSN)
	}
	postQuery(t, srv.URL, q) // warm the cache
	var ins struct {
		ID  int    `json:"id"`
		LSN uint64 `json:"lsn"`
	}
	if code := postJSON(t, srv.URL+"/v1/insert", `{"option":[0.95,0.95]}`, &ins); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}
	if ins.ID != 5 || ins.LSN != 1 {
		t.Fatalf("insert ack = %+v, want id 5 lsn 1", ins)
	}
	code, env := postQuery(t, srv.URL, q)
	if code != http.StatusOK || env.Cached || env.LSN != 1 {
		t.Errorf("post-insert query: code=%d cached=%v lsn=%d, want fresh at lsn 1",
			code, env.Cached, env.LSN)
	}
	// A filtered insert does not advance the LSN, so the freshly cached
	// answer above is still valid.
	if code := postJSON(t, srv.URL+"/v1/insert", `{"option":[0.01,0.01]}`, &ins); code != http.StatusOK || ins.ID != -1 || ins.LSN != 1 {
		t.Fatalf("filtered insert: code=%d ack=%+v", code, ins)
	}
	if _, env := postQuery(t, srv.URL, q); !env.Cached || env.LSN != 1 {
		t.Errorf("after filtered insert: cached=%v lsn=%d, want hit at lsn 1", env.Cached, env.LSN)
	}
}

// TestCacheEquivalence is the acceptance check for cache transparency: a
// randomized workload over every family must produce byte-identical result
// and stats objects (and equal LSNs) from a cached handler and a
// cache-disabled one; the cached flag is the one intentional difference.
// Each request runs twice against
// the cached server so the second hit is exercised, and an insert partway
// through exercises wholesale invalidation.
func TestCacheEquivalence(t *testing.T) {
	build := func() *tlx.Index {
		rng := rand.New(rand.NewSource(11))
		data := make([][]float64, 60)
		for i := range data {
			data[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		ix, err := tlx.Build(data, 3)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	cached := httptest.NewServer(NewHandler(build(), Config{}).Mux())
	t.Cleanup(cached.Close)
	plain := httptest.NewServer(NewHandler(build(), Config{CacheEntries: -1}).Mux())
	t.Cleanup(plain.Close)

	rng := rand.New(rand.NewSource(7))
	randW := func() (float64, float64, float64) {
		a, b := rng.Float64(), rng.Float64()
		if a+b > 1 {
			a, b = (1-a)/2, (1-b)/2
		}
		return a, b, 1 - a - b
	}
	var bodies []string
	genPhase := func(maxK int) {
		for i := 0; i < 12; i++ {
			k := 1 + rng.Intn(maxK)
			f := rng.Intn(60)
			a, b, c := randW()
			lo0, lo1 := rng.Float64()/2, rng.Float64()/2
			hi0, hi1 := lo0+0.05, lo1+0.05
			bodies = append(bodies,
				fmt.Sprintf(`{"family":"topk","w":[%g,%g,%g],"k":%d}`, a, b, c, k),
				fmt.Sprintf(`{"family":"kspr","focal":%d,"k":%d}`, f, k),
				fmt.Sprintf(`{"family":"utk","lo":[%g,%g],"hi":[%g,%g],"k":%d}`, lo0, lo1, hi0, hi1, k),
				fmt.Sprintf(`{"family":"oru","w":[%g,%g,%g],"k":%d,"m":3}`, a, b, c, k),
				fmt.Sprintf(`{"family":"maxrank","focal":%d}`, f),
				fmt.Sprintf(`{"family":"whynot","focal":%d,"w":[%g,%g,%g],"k":%d}`, f, a, b, c, k),
			)
		}
	}
	run := func() {
		t.Helper()
		for _, b := range bodies {
			codeP, envP := postQuery(t, plain.URL, b)
			for pass := 0; pass < 2; pass++ {
				codeC, envC := postQuery(t, cached.URL, b)
				if codeC != codeP || !bytes.Equal(envC.Result, envP.Result) ||
					!bytes.Equal(envC.Stats, envP.Stats) || envC.LSN != envP.LSN {
					t.Fatalf("POST %s pass %d: cached (%d) %+v vs plain (%d) %+v",
						b, pass, codeC, envC, codeP, envP)
				}
			}
		}
		bodies = nil
	}

	genPhase(3) // k <= tau
	run()
	// Insert the same option into both servers: the LSN advances in
	// lockstep and every cached answer goes stale at once.
	for _, s := range []*httptest.Server{cached, plain} {
		if code := postJSON(t, s.URL+"/v1/insert", `{"option":[0.97,0.96,0.95]}`, nil); code != http.StatusOK {
			t.Fatalf("insert into %s: status %d", s.URL, code)
		}
	}
	genPhase(3)
	run()
	genPhase(4) // k = tau+1 is refused (422) alike, and never cached
	run()
}

// cacheProbeHandler is a handler over the hotels index with a post helper
// that fails the test on a non-200, and the count of answer-cache lookups
// made so far.
func cacheProbeHandler(t *testing.T) (post func(path, body string), lookups func() uint64) {
	t.Helper()
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(ix, Config{})
	mux := h.Mux()
	post = func(path, body string) {
		t.Helper()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, w.Code, w.Body.String())
		}
	}
	lookups = func() uint64 {
		st := h.cache.Stats()
		return st.Hits + st.Misses + st.Stale
	}
	return post, lookups
}

// TestTopKBypassesCache: top-k requests, single and batched, never reach the
// answer cache. 1,000 of them over spread weights and depths leave its
// lookup counters where two UTK requests put them.
func TestTopKBypassesCache(t *testing.T) {
	post, lookups := cacheProbeHandler(t)
	post("/v1/query", `{"family":"utk","lo":[0.35],"hi":[0.45],"k":2}`)
	post("/v1/query", `{"family":"utk","lo":[0.35],"hi":[0.45],"k":2}`)
	if got := lookups(); got != 2 {
		t.Fatalf("two UTK requests made %d cache lookups, want 2", got)
	}
	rng := rand.New(rand.NewSource(5))
	var batch strings.Builder
	batch.WriteString(`{"queries":[`)
	for i := 0; i < 500; i++ {
		a := rng.Float64()
		q := fmt.Sprintf(`{"family":"topk","w":[%g,%g],"k":%d}`, a, 1-a, 1+rng.Intn(3))
		post("/v1/query", q)
		if i > 0 {
			batch.WriteByte(',')
		}
		batch.WriteString(q)
	}
	batch.WriteString(`]}`)
	post("/v1/query/batch", batch.String())
	if got := lookups(); got != 2 {
		t.Fatalf("1,000 top-k requests moved the cache lookups from 2 to %d", got)
	}
}

// TestKSPRBypassesCache: kSPR requests, repeated single and batched, never
// reach the answer cache.
func TestKSPRBypassesCache(t *testing.T) {
	post, lookups := cacheProbeHandler(t)
	var batch strings.Builder
	batch.WriteString(`{"queries":[`)
	for i := 0; i < 12; i++ {
		q := fmt.Sprintf(`{"family":"kspr","focal":%d,"k":%d}`, i%4, 1+i%3)
		post("/v1/query", q)
		post("/v1/query", q)
		if i > 0 {
			batch.WriteByte(',')
		}
		batch.WriteString(q)
	}
	batch.WriteString(`]}`)
	post("/v1/query/batch", batch.String())
	post("/v1/query/batch", batch.String())
	if got := lookups(); got != 0 {
		t.Fatalf("repeated kSPR requests made %d cache lookups, want 0", got)
	}
}

// TestQueryDefaults: an omitted (or zero) k or m means 10, and explicit
// values stand.
func TestQueryDefaults(t *testing.T) {
	q := QueryRequest{}
	q.defaults()
	if q.K != 10 || q.M != 10 {
		t.Errorf("defaults of an empty request: k=%d m=%d, want 10 and 10", q.K, q.M)
	}
	q = QueryRequest{K: 2, M: 3}
	q.defaults()
	if q.K != 2 || q.M != 3 {
		t.Errorf("defaults overrode k=2 m=3: k=%d m=%d", q.K, q.M)
	}
}
