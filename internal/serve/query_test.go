package serve

import (
	"bytes"
	"encoding/json"
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
// the envelope carries the pinned answers, and that an identical repeat
// answers the same bytes.
func TestQueryEnvelope(t *testing.T) {
	srv := newServer(t)
	cases := []struct {
		body   string
		result string // substring of the result object
	}{
		{`{"family":"topk","w":[0.18,0.82],"k":2}`, `"options":[0,3]`},
		{`{"family":"kspr","focal":0,"k":2}`, `"regions":[`},
		{`{"family":"utk","lo":[0.35],"hi":[0.45],"k":3}`, `"options":[0,1,2,3]`},
		{`{"family":"oru","w":[0.3,0.7],"k":2,"m":3}`, `"rho":`},
		{`{"family":"maxrank","focal":4}`, `"rank":-1`},
		{`{"family":"whynot","focal":0,"w":[0.9,0.1],"k":2}`, `"Rank":3`},
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
		if env.LSN != 0 {
			t.Errorf("%s: lsn = %d before any insert", c.body, env.LSN)
		}
		var stats queryStatsBody
		if err := json.Unmarshal(env.Stats, &stats); err != nil {
			t.Errorf("%s: stats not decodable: %v", c.body, err)
		}
		// Repeat: the second run must answer byte-identically to the first.
		code2, env2 := postQuery(t, srv.URL, c.body)
		if code2 != http.StatusOK {
			t.Errorf("%s: repeat status %d", c.body, code2)
		}
		if !bytes.Equal(env.Result, env2.Result) || !bytes.Equal(env.Stats, env2.Stats) {
			t.Errorf("%s: repeat differs: %s / %s vs %s / %s",
				c.body, env.Result, env.Stats, env2.Result, env2.Stats)
		}
	}
}

// TestQueryEnvelopeTopKSharesCellChain pins what the cell chain means to the
// serving tier: two different weight vectors inside one cell chain get
// byte-identical result and stats objects, and their traces name the same
// cell.
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
	if code1 != 200 || code2 != 200 {
		t.Fatalf("codes %d/%d, want 200/200", code1, code2)
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
// inserts and stays put across a filtered one.
func TestQueryEnvelopeLSN(t *testing.T) {
	srv := newServer(t)
	const q = `{"family":"utk","lo":[0.35],"hi":[0.45],"k":2}`
	if _, env := postQuery(t, srv.URL, q); env.LSN != 0 {
		t.Fatalf("pre-insert lsn = %d", env.LSN)
	}
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
	if code != http.StatusOK || env.LSN != 1 {
		t.Errorf("post-insert query: code=%d lsn=%d, want 200 at lsn 1", code, env.LSN)
	}
	// A filtered insert does not advance the LSN, and the answer stays the
	// same bytes.
	if code := postJSON(t, srv.URL+"/v1/insert", `{"option":[0.01,0.01]}`, &ins); code != http.StatusOK || ins.ID != -1 || ins.LSN != 1 {
		t.Fatalf("filtered insert: code=%d ack=%+v", code, ins)
	}
	if _, again := postQuery(t, srv.URL, q); again.LSN != 1 ||
		!bytes.Equal(again.Result, env.Result) || !bytes.Equal(again.Stats, env.Stats) {
		t.Errorf("after filtered insert: lsn=%d %s %s, want lsn 1 and %s %s",
			again.LSN, again.Result, again.Stats, env.Result, env.Stats)
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
