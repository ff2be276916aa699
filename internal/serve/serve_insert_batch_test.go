package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/internal/obs"
	"tlevelindex/internal/store"
)

type insertAck struct {
	ID  *int    `json:"id"`
	LSN *uint64 `json:"lsn"`
	Err string  `json:"error"`
	Sts int     `json:"status"`
}

func postInsertBatch(t *testing.T, base, body string) (int, []insertAck) {
	t.Helper()
	resp, err := http.Post(base+"/v1/insert/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var env struct {
		Results []insertAck `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	return resp.StatusCode, env.Results
}

// TestInsertBatchEndpoint: one mixed envelope must answer, item by item,
// exactly what the same options would get from sequential POST /v1/insert
// calls — including the per-item error for a malformed option, which fails
// no neighbors.
func TestInsertBatchEndpoint(t *testing.T) {
	seq, bat := newServer(t), newServer(t)

	options := []string{
		`[0.95,0.95]`, // accepted: dominates the dataset
		`[0.01,0.01]`, // filtered: id -1
		`[0.95,0.95]`, // duplicate of the first item: same id
		`[0.5]`,       // dimensionality mismatch: per-item 400
		`[0.9,0.2]`,   // accepted
	}
	type ack struct {
		id   int
		lsn  uint64
		code int
	}
	want := make([]ack, len(options))
	for i, opt := range options {
		var ins struct {
			ID  int    `json:"id"`
			LSN uint64 `json:"lsn"`
		}
		code := postJSON(t, seq.URL+"/v1/insert", `{"option":`+opt+`}`, &ins)
		want[i] = ack{ins.ID, ins.LSN, code}
	}

	code, results := postInsertBatch(t, bat.URL, `{"options":[`+strings.Join(options, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(results) != len(options) {
		t.Fatalf("%d results for %d options", len(results), len(options))
	}
	for i, res := range results {
		if want[i].code != http.StatusOK {
			if res.Err == "" || res.Sts != want[i].code {
				t.Errorf("item %d: %+v, want per-item status %d", i, res, want[i].code)
			}
			if res.ID != nil || res.LSN != nil {
				t.Errorf("item %d: failure item carries id/lsn", i)
			}
			continue
		}
		if res.Err != "" || res.ID == nil || res.LSN == nil {
			t.Fatalf("item %d: %+v, want success shape", i, res)
		}
		if *res.ID != want[i].id || *res.LSN != want[i].lsn {
			t.Errorf("item %d: batch (id %d, lsn %d), sequential (id %d, lsn %d)",
				i, *res.ID, *res.LSN, want[i].id, want[i].lsn)
		}
	}

	// Both servers answer identically afterwards.
	var bTop, sTop struct {
		Options []int `json:"options"`
	}
	if code, _ := queryResult(t, bat.URL, `{"family":"topk","w":[0.5,0.5],"k":3}`, &bTop); code != 200 {
		t.Fatalf("topk status %d", code)
	}
	if code, _ := queryResult(t, seq.URL, `{"family":"topk","w":[0.5,0.5],"k":3}`, &sTop); code != 200 {
		t.Fatalf("topk status %d", code)
	}
	if len(bTop.Options) != len(sTop.Options) {
		t.Fatalf("batch server top-3 %v, sequential %v", bTop.Options, sTop.Options)
	}
	for i := range bTop.Options {
		if bTop.Options[i] != sTop.Options[i] {
			t.Fatalf("batch server top-3 %v, sequential %v", bTop.Options, sTop.Options)
		}
	}
}

// TestInsertBatchEndpointLimits covers the envelope bounds and method gate.
func TestInsertBatchEndpointLimits(t *testing.T) {
	srv := newServer(t)
	if code, _ := postInsertBatch(t, srv.URL, `{"options":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", code)
	}
	if code, _ := postInsertBatch(t, srv.URL, `{"options":`); code != http.StatusBadRequest {
		t.Errorf("truncated body: status %d, want 400", code)
	}
	var sb strings.Builder
	sb.WriteString(`{"options":[`)
	for i := 0; i <= maxBatchInserts; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`[0.5,0.5]`)
	}
	sb.WriteString(`]}`)
	if code, _ := postInsertBatch(t, srv.URL, sb.String()); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"/v1/insert/batch", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET insert/batch: status %d, want 405", code)
	}
	// A query past τ is refused with 422 and leaves the write path open:
	// the next batch lands item by item.
	if code, _ := postQuery(t, srv.URL, `{"family":"topk","w":[0.5,0.5],"k":4}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("deep topk: status %d, want 422", code)
	}
	code, results := postInsertBatch(t, srv.URL, `{"options":[[0.9,0.9],[0.8,0.8]]}`)
	if code != http.StatusOK {
		t.Fatalf("batch after the refused query: status %d", code)
	}
	for i, res := range results {
		if res.Sts != 0 || res.Err != "" {
			t.Errorf("item %d after the refused query: %+v, want accepted", i, res)
		}
	}
}

// TestInsertBatchDurable: a batch acknowledged over HTTP against a
// store-backed server must survive a restart record for record, and ids
// keep advancing from the recovered high-water mark.
func TestInsertBatchDurable(t *testing.T) {
	dir := t.TempDir()
	srv, st := newStoreServer(t, dir)

	code, results := postInsertBatch(t, srv.URL,
		`{"options":[[0.95,0.95],[0.01,0.01],[0.96,0.9]]}`)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if *results[0].ID != 5 || *results[1].ID != -1 || *results[2].ID != 6 {
		t.Fatalf("batch ids: %+v", results)
	}
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(store.Options{Dir: dir, Logf: t.Logf}, nil)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Close()
	srv2 := httptest.NewServer(NewStoreHandler(st2, Config{}).Mux())
	defer srv2.Close()

	var top struct {
		Options []int `json:"options"`
	}
	if code, _ := queryResult(t, srv2.URL, `{"family":"topk","w":[0.5,0.5],"k":2}`, &top); code != 200 {
		t.Fatalf("topk after restart: status %d", code)
	}
	if len(top.Options) != 2 || top.Options[0] != 5 {
		t.Errorf("top-2 after restart = %v, want [5 ...]", top.Options)
	}
	var ins struct {
		ID int `json:"id"`
	}
	if code := postJSON(t, srv2.URL+"/v1/insert", `{"option":[0.97,0.97]}`, &ins); code != 200 || ins.ID != 7 {
		t.Errorf("post-restart insert: code=%d id=%d, want 200/7", code, ins.ID)
	}
}

// fakeFollower is the minimal Follower for testing the read-only gate.
type fakeFollower struct {
	ix               *tlx.Index
	mu               sync.RWMutex
	applied, primary uint64
}

func (f *fakeFollower) Index() *tlx.Index    { return f.ix }
func (f *fakeFollower) Mutex() *sync.RWMutex { return &f.mu }
func (f *fakeFollower) AppliedLSN() uint64   { return f.applied }
func (f *fakeFollower) PrimaryLSN() uint64   { return f.primary }
func (f *fakeFollower) PrimaryURL() string   { return "http://primary.example" }
func (f *fakeFollower) StateName() string    { return "live" }

// TestInsertBatchFollowerForbidden: a follower refuses the batch endpoint
// with the same 403-plus-primary envelope as single inserts.
func TestInsertBatchFollowerForbidden(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewFollowerHandler(&fakeFollower{ix: ix}, Config{}).Mux())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/insert/batch", "application/json",
		strings.NewReader(`{"options":[[0.9,0.9]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower batch insert: status %d, want 403", resp.StatusCode)
	}
	var body struct {
		Primary string `json:"primary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Primary == "" {
		t.Errorf("403 body missing primary: %v %+v", err, body)
	}
}

// FuzzInsertBatchEnvelope hardens the batch-insert decoder: arbitrary
// client bytes must produce well-formed JSON with a sane status, never a
// panic — and never a 5xx, since every failure here is the client's.
func FuzzInsertBatchEnvelope(f *testing.F) {
	f.Add(`{"options":[[0.95,0.95],[0.01,0.01]]}`)
	f.Add(`{"options":[]}`)
	f.Add(`{"options":[[0.5],[1e308,-1e308],[null]]}`)
	f.Add(`{"options":[[0.5,"x"]]}`)
	f.Add(`{"options":{"option":[0.5,0.5]}}`)
	f.Add(`[`)
	f.Add(`{"options":[[]]}`)
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		f.Fatal(err)
	}
	mux := NewHandler(ix, Config{}).Mux()
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/insert/batch", strings.NewReader(body))
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

// TestInsertBatchTraceSpan: a traced batch insert records an insert.batch
// span carrying the batch size, the logged and accepted record counts, and
// the rebuild's wall time — the ingest view of the flight recorder.
func TestInsertBatchTraceSpan(t *testing.T) {
	srv := newServer(t) // TraceSample 1: every request traced
	resp, err := http.Post(srv.URL+"/v1/insert/batch", "application/json",
		strings.NewReader(`{"options":[[0.95,0.95],[0.01,0.01],[0.9,0.2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out traceOut
	if code := getJSON(t, srv.URL+"/v1/admin/trace?n=5", &out); code != 200 {
		t.Fatalf("admin/trace status %d", code)
	}
	for _, tr := range out.Traces {
		if tr.Endpoint != "/v1/insert/batch" {
			continue
		}
		names := make(map[string][]*obs.SpanNode)
		walkTree(tr.Tree, names)
		spans := names["insert.batch"]
		if len(spans) != 1 {
			t.Fatalf("insert.batch spans = %d, want 1", len(spans))
		}
		attrs := spans[0].Attrs
		if attrs["records"] != 3 {
			t.Errorf("records attr = %v, want 3", attrs["records"])
		}
		if attrs["logged"] != 2 {
			t.Errorf("logged attr = %v, want 2 (one option is filtered)", attrs["logged"])
		}
		if attrs["accepted"] != 2 {
			t.Errorf("accepted attr = %v, want 2", attrs["accepted"])
		}
		if attrs["rebuildNs"] <= 0 {
			t.Errorf("rebuildNs attr = %v, want the rebuild's wall time: %v", attrs["rebuildNs"], attrs)
		}
		return
	}
	t.Fatalf("no /v1/insert/batch trace retained (%d traces)", len(out.Traces))
}
