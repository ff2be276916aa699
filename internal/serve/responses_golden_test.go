package serve

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/responses.golden from this build's responses")

// goldenStep is one request of the fixed script; srv names the handler
// ("mem", "store" or "follower") it goes to. Steps run in order: each
// family's query runs twice ("miss", then "hit": labels kept from when a
// repeat could come from an answer cache, so the file's sections stay
// comparable), and an LSN is whatever the inserts before it left.
type goldenStep struct {
	name, srv, method, path, body string
}

var goldenScript = func() []goldenStep {
	steps := []goldenStep{{"stats", "mem", "GET", "/v1/stats", ""}}
	for _, q := range []struct{ family, ok, bad string }{
		{"topk", `{"family":"topk","w":[0.18,0.82],"k":2}`, `{"family":"topk","w":[0.9,0.3],"k":2}`},
		{"kspr", `{"family":"kspr","focal":0,"k":2}`, `{"family":"kspr","k":2}`},
		{"utk", `{"family":"utk","lo":[0.35],"hi":[0.45],"k":3}`, `{"family":"utk","lo":[0.5],"hi":[0.2],"k":2}`},
		{"oru", `{"family":"oru","w":[0.3,0.7],"k":2,"m":3}`, `{"family":"oru","w":[0.3,0.7],"k":2,"m":-1}`},
		{"maxrank", `{"family":"maxrank","focal":4}`, `{"family":"maxrank"}`},
		{"whynot", `{"family":"whynot","focal":0,"w":[0.9,0.1],"k":2}`, `{"family":"whynot","focal":0,"k":2}`},
	} {
		steps = append(steps,
			goldenStep{q.family + " miss", "mem", "POST", "/v1/query", q.ok},
			goldenStep{q.family + " hit", "mem", "POST", "/v1/query", q.ok},
			goldenStep{q.family + " error", "mem", "POST", "/v1/query", q.bad})
	}
	return append(steps,
		goldenStep{"unknown family", "mem", "POST", "/v1/query", `{"family":"sky","w":[0.5,0.5]}`},
		goldenStep{"bad query body", "mem", "POST", "/v1/query", `{"family":`},
		goldenStep{"mixed batch", "mem", "POST", "/v1/query/batch", `{"queries":[
			{"family":"topk","w":[0.18,0.82],"k":2},
			{"family":"topk","w":[0.19,0.81],"k":2},
			{"family":"topk","w":[0.7,0.3],"k":3},
			{"family":"topk","w":[0.9,0.9],"k":2},
			{"family":"kspr","focal":0,"k":2},
			{"family":"maxrank","focal":3},
			{"family":"nosuch"},
			{"family":"kspr","k":2}]}`},
		goldenStep{"empty batch", "mem", "POST", "/v1/query/batch", `{"queries":[]}`},
		goldenStep{"insert", "mem", "POST", "/v1/insert", `{"option":[0.95,0.95]}`},
		goldenStep{"insert filtered", "mem", "POST", "/v1/insert", `{"option":[0.01,0.01]}`},
		goldenStep{"insert wrong dim", "mem", "POST", "/v1/insert", `{"option":[0.5,0.5,0.5]}`},
		goldenStep{"insert missing option", "mem", "POST", "/v1/insert", `{}`},
		goldenStep{"insert batch", "mem", "POST", "/v1/insert/batch",
			`{"options":[[0.96,0.97],[0.01,0.02],[0.5],[0.97,0.96]]}`},
		goldenStep{"insert batch empty", "mem", "POST", "/v1/insert/batch", `{"options":[]}`},
		goldenStep{"query after inserts", "mem", "POST", "/v1/query", `{"family":"topk","w":[0.18,0.82],"k":2}`},
		goldenStep{"404", "mem", "GET", "/v1/nope", ""},
		goldenStep{"404 admin in memory mode", "mem", "GET", "/v1/admin/status", ""},
		goldenStep{"405 get on post", "mem", "GET", "/v1/query", ""},
		goldenStep{"405 post on get", "mem", "POST", "/v1/stats", ""},
		goldenStep{"413", "mem", "POST", "/v1/query", strings.Repeat(" ", maxBodyBytes+1) + "{}"},
		goldenStep{"422 beyond tau", "mem", "POST", "/v1/query", `{"family":"topk","w":[0.5,0.5],"k":4}`},
		// k and m of 0 mean 10, and a k of 10 is beyond this τ=3 index.
		goldenStep{"zero k and m mean 10", "mem", "POST", "/v1/query", `{"family":"oru","w":[0.3,0.7],"k":0}`},

		goldenStep{"store insert", "store", "POST", "/v1/insert", `{"option":[0.95,0.95]}`},
		goldenStep{"store insert batch", "store", "POST", "/v1/insert/batch", `{"options":[[0.96,0.97],[0.01,0.02]]}`},
		goldenStep{"store query", "store", "POST", "/v1/query", `{"family":"topk","w":[0.5,0.5],"k":2}`},
		goldenStep{"store status", "store", "GET", "/v1/admin/status", ""},
		goldenStep{"store 405 snapshot", "store", "GET", "/v1/admin/snapshot", ""},
		goldenStep{"store stream bad from", "store", "GET", "/v1/admin/snapshot/stream?from=x", ""},

		goldenStep{"follower query", "follower", "POST", "/v1/query", `{"family":"topk","w":[0.18,0.82],"k":2}`},
		goldenStep{"follower 422 beyond tau", "follower", "POST", "/v1/query", `{"family":"topk","w":[0.18,0.82],"k":5}`},
		goldenStep{"follower 403 insert", "follower", "POST", "/v1/insert", `{"option":[0.95,0.95]}`},
		goldenStep{"follower 403 insert batch", "follower", "POST", "/v1/insert/batch", `{"options":[[0.9,0.9]]}`},
		goldenStep{"follower status", "follower", "GET", "/v1/admin/status", ""},
		goldenStep{"follower 404 snapshot", "follower", "POST", "/v1/admin/snapshot", ""},
	)
}()

// The two store status fields that differ between runs.
var goldenVolatile = regexp.MustCompile(`"(dir|snapshotAgeSeconds)":("[^"]*"|[^,}]*)`)

// TestGoldenResponses replays goldenScript against one handler per
// constructor and compares status, Content-Type, Allow and body of every
// response, byte for byte, with testdata/responses.golden — captured from
// the commit before the GET routes were retired, so the POST, insert, admin
// and error surfaces are pinned across that change and any later one.
// Regenerate with `go test ./internal/serve -run TestGoldenResponses -update`.
//
// The file sorts after obs_smoke_test.go on purpose: TestMetricsEndpoint
// asserts absolute values of the process-wide WAL counters, which the store
// inserts made here would move if they ran first.
func TestGoldenResponses(t *testing.T) {
	build := func() *tlx.Index {
		ix, err := tlx.Build(hotels, 3)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	st, err := store.Open(store.Options{Dir: t.TempDir(), Logger: testLogger(t)},
		func() (*tlx.Index, error) { return build(), nil })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// A follower's index arrives serialized, so it has no full dataset.
	var snap bytes.Buffer
	if _, err := build().WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	folIx, err := tlx.ReadIndexBytes(snap.Bytes(), false)
	if err != nil {
		t.Fatal(err)
	}
	muxes := map[string]*http.ServeMux{
		"mem":      NewHandler(build(), Config{}).Mux(),
		"store":    NewStoreHandler(st, Config{}).Mux(),
		"follower": NewFollowerHandler(&fakeFollower{ix: folIx, applied: 3, primary: 5}, Config{}).Mux(),
	}
	var got bytes.Buffer
	for _, s := range goldenScript {
		w := httptest.NewRecorder()
		muxes[s.srv].ServeHTTP(w, httptest.NewRequest(s.method, s.path, strings.NewReader(s.body)))
		fmt.Fprintf(&got, "=== %s: %s %s %s\n%d %s allow=%q\n%s", s.name, s.srv, s.method, s.path,
			w.Code, w.Header().Get("Content-Type"), w.Header().Get("Allow"),
			goldenVolatile.ReplaceAllString(w.Body.String(), `"$1":"<volatile>"`))
	}
	const path = "testdata/responses.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			section := ""
			for j := i; j >= 0 && section == ""; j-- {
				if strings.HasPrefix(gl[j], "=== ") {
					section = gl[j]
				}
			}
			w := "<end of file>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("responses differ from %s at line %d, in %q:\n got %s\nwant %s", path, i+1, section, gl[i], w)
		}
	}
	t.Fatalf("responses differ from %s: %d lines, want %d", path, len(gl), len(wl))
}
