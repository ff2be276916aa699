package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	tlx "tlevelindex"
)

// doEnvelope performs a request and decodes the JSON error envelope from
// the response body regardless of status, returning the code and message.
func doEnvelope(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("%s %s: body is not a JSON envelope: %v", method, url, err)
	}
	return resp.StatusCode, envelope.Error
}

// TestErrorEnvelopes pins the failure surface of the serve layer: every
// error path must answer with the {"error": "..."} JSON envelope and the
// documented status code — malformed bodies, wrong-dimension inserts, and
// writes against a drained (closed) store.
func TestErrorEnvelopes(t *testing.T) {
	srv, st := newStoreServer(t, t.TempDir())

	// A syntactically broken JSON body is a 400 with a parse message.
	code, msg := doEnvelope(t, http.MethodPost, srv.URL+"/v1/insert", `{"option": [0.5,`)
	if code != http.StatusBadRequest || !strings.Contains(msg, "bad insert body") {
		t.Errorf("broken body: code=%d msg=%q", code, msg)
	}

	// A well-formed body whose option has the wrong dimensionality is
	// rejected by the index, still as a 400 envelope.
	code, msg = doEnvelope(t, http.MethodPost, srv.URL+"/v1/insert", `{"option": [0.5, 0.5, 0.5]}`)
	if code != http.StatusBadRequest || msg == "" {
		t.Errorf("wrong-dimension insert: code=%d msg=%q", code, msg)
	}

	// Wrong method answers the envelope too, with Allow set.
	code, msg = doEnvelope(t, http.MethodGet, srv.URL+"/v1/insert", "")
	if code != http.StatusMethodNotAllowed || !strings.Contains(msg, "not allowed") {
		t.Errorf("GET insert: code=%d msg=%q", code, msg)
	}
	resp, err := http.Get(srv.URL + "/v1/insert")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Allow"); got != http.MethodPost {
		t.Errorf("405 Allow header = %q, want %q", got, http.MethodPost)
	}

	// A negative focal is a 400 "invalid … option" in every focal family,
	// why-not included, and a refused why-not is not cached: the repeat is
	// refused again.
	for _, body := range []string{
		`{"family":"kspr","focal":-1,"k":2}`,
		`{"family":"maxrank","focal":-1}`,
		`{"family":"whynot","focal":-1,"w":[0.9,0.1],"k":2}`,
		`{"family":"whynot","focal":-1,"w":[0.9,0.1],"k":2}`,
	} {
		code, msg = doEnvelope(t, http.MethodPost, srv.URL+"/v1/query", body)
		if code != http.StatusBadRequest || !strings.Contains(msg, "invalid") || !strings.Contains(msg, "option -1") {
			t.Errorf("%s: code=%d msg=%q, want 400 invalid option", body, code, msg)
		}
	}

	// A query deeper than τ is a 422 naming ErrBeyondTau.
	code, msg = doEnvelope(t, http.MethodPost, srv.URL+"/v1/query", `{"family":"utk","lo":[0.3],"hi":[0.4],"k":9}`)
	if code != http.StatusUnprocessableEntity || msg != tlx.ErrBeyondTau.Error() {
		t.Errorf("utk past τ: code=%d msg=%q", code, msg)
	}

	// Unknown paths answer the JSON envelope, not ServeMux's text page.
	code, msg = doEnvelope(t, http.MethodGet, srv.URL+"/v1/nope", "")
	if code != http.StatusNotFound || !strings.Contains(msg, "no such endpoint") {
		t.Errorf("unknown path: code=%d msg=%q", code, msg)
	}

	// Drain the store: the server still answers, but writes are refused
	// with the envelope explaining the closed store. Reads keep working
	// against the in-memory index.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	code, msg = doEnvelope(t, http.MethodPost, srv.URL+"/v1/insert", `{"option": [0.95, 0.95]}`)
	if code != http.StatusBadRequest || !strings.Contains(msg, "closed") {
		t.Errorf("insert on drained store: code=%d msg=%q", code, msg)
	}
	if code, _ := postQuery(t, srv.URL, `{"family":"topk","w":[0.5,0.5],"k":1}`); code != http.StatusOK {
		t.Errorf("query on drained store: code=%d, want 200", code)
	}
	code, msg = doEnvelope(t, http.MethodPost, srv.URL+"/v1/admin/snapshot", "")
	if code != http.StatusBadRequest || !strings.Contains(msg, "closed") {
		t.Errorf("snapshot on drained store: code=%d msg=%q", code, msg)
	}
}

// TestRequestBodyCap: every POST endpoint refuses a body over maxBodyBytes
// with a 413 envelope before buffering it, while the largest legal
// envelope — 1024 items — stays far below the cap.
func TestRequestBodyCap(t *testing.T) {
	srv := newServer(t)
	huge := strings.Repeat(" ", maxBodyBytes+1) + "{}"
	for _, path := range []string{"/v1/query", "/v1/query/batch", "/v1/insert", "/v1/insert/batch"} {
		code, msg := doEnvelope(t, http.MethodPost, srv.URL+path, huge)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "too large") {
			t.Errorf("%s over-cap body: code=%d msg=%q, want 413", path, code, msg)
		}
	}
	full := `{"queries":[` + strings.TrimSuffix(strings.Repeat(`{"family":"maxrank","focal":0},`, maxBatchQueries), ",") + `]}`
	if code, items := postBatch(t, srv.URL, full); code != http.StatusOK || len(items) != maxBatchQueries {
		t.Errorf("full batch: code=%d items=%d, want 200/%d", code, len(items), maxBatchQueries)
	}
}
