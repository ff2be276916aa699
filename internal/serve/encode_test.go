package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

// FuzzAppendJSONFloat: for every finite float64 the float appender writes
// exactly what json.Marshal does, and it refuses NaN and ±Inf with
// json.Marshal's error.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.7962962962962963, 1.0 / 3,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023,
		math.MaxFloat64, -math.MaxFloat64,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
		1e-7, 5e-9, -3.5e-8, 1e-10, 1e22, 1.5e25, 9.999999999999999e-7,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		rw := respWriter{b: []byte("x")}
		err := rw.float(v)
		want, wantErr := json.Marshal(v)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() || string(rw.b) != "x" {
				t.Fatalf("float(%v) = %q, %v; json.Marshal refuses it with %v", v, rw.b, err, wantErr)
			}
			return
		}
		if err != nil || !bytes.Equal(rw.b[1:], want) || rw.b[0] != 'x' {
			t.Fatalf("float(%b) = %q, %v; json.Marshal = %q", v, rw.b, err, want)
		}
	})
}

// identityQueries draws query bodies of every family on ix, an index over
// n options: the kSPR focal with the most regions at k = τ, random draws of
// every family, and one item of each failure status, one of them with an
// error string encoding/json HTML-escapes.
func identityQueries(ix *tlx.Index, n int, rng *rand.Rand) []string {
	d, tau := ix.Dim(), ix.Tau()
	best, most := 0, -1
	for f := 0; f < n; f++ {
		if res, err := ix.KSPR(tau, f); err == nil && len(res.Regions) > most {
			best, most = f, len(res.Regions)
		}
	}
	body := func(q QueryRequest) string {
		b, err := json.Marshal(q)
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	focal := func(f int) *int { return &f }
	qs := []string{body(QueryRequest{Family: "kspr", K: tau, Focal: focal(best)})}
	for i := 0; i < 8; i++ {
		w := make([]float64, d)
		sum := 0.0
		for j := range w {
			w[j] = rng.ExpFloat64()
			sum += w[j]
		}
		for j := range w {
			w[j] /= sum
		}
		lo, hi := make([]float64, d-1), make([]float64, d-1)
		for j := range lo {
			lo[j], hi[j] = math.Max(0, w[j]-0.02), w[j]+0.02
		}
		k, f := 1+rng.Intn(tau), focal(rng.Intn(n))
		qs = append(qs,
			body(QueryRequest{Family: "topk", W: w, K: k}),
			body(QueryRequest{Family: "kspr", K: k, Focal: f}),
			body(QueryRequest{Family: "utk", K: k, Lo: lo, Hi: hi}),
			body(QueryRequest{Family: "oru", K: k, W: w, M: k + 3}),
			body(QueryRequest{Family: "maxrank", Focal: f}),
			body(QueryRequest{Family: "whynot", K: k, W: w, Focal: f}))
	}
	return append(qs,
		`{"family":"<no&such>"}`,
		`{"family":"kspr","k":1}`,
		body(QueryRequest{Family: "kspr", K: tau + 1, Focal: focal(best)}),
		`{"family":"topk","w":[2],"k":1}`,
		`{"family":"maxrank","focal":-1}`,
		`{"family":"utk","lo":[0.5],"hi":[0.2],"k":1}`)
}

// TestResponsesMatchEncodingJSON: for every family at d = 2..5, every
// /v1/query answer and one mixed /v1/query/batch answer are byte-identical
// to encoding/json's rendering of the same items — the error envelope for a
// failed single query, {"results":[...]} for the batch. The d=3 index holds
// a kSPR answer of more than 100 regions.
func TestResponsesMatchEncodingJSON(t *testing.T) {
	encode := func(v any) []byte {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	post := func(mux *http.ServeMux, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return w
	}
	mostRegions := 0
	for _, c := range []struct{ d, tau int }{{2, 4}, {3, 6}, {4, 2}, {5, 2}} {
		ix, err := tlx.Build(datagen.Generate(datagen.IND, 2000, c.d, int64(c.d)), c.tau)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHandler(ix, Config{})
		mux := h.Mux()
		bodies := identityQueries(ix, 2000, rand.New(rand.NewSource(int64(c.d))))
		qs := make([]QueryRequest, len(bodies))
		for i, body := range bodies {
			if err := json.Unmarshal([]byte(body), &qs[i]); err != nil {
				t.Fatal(err)
			}
			qs[i].defaults()
			got := post(mux, "/v1/query", body)
			items := make([]queryItem, 1)
			h.dispatchBatch(context.Background(), qs[i:i+1], items)
			it := items[0]
			want, status := encode(it), http.StatusOK
			if it.Error != "" {
				want, status = encode(errorBody{Error: it.Error}), it.Status
			}
			if got.Code != status || !bytes.Equal(got.Body.Bytes(), want) {
				t.Fatalf("d=%d %s: got %d %q\nwant %d %q", c.d, body, got.Code, got.Body, status, want)
			}
			if kb, ok := it.Result.(*ksprBody); ok {
				mostRegions = max(mostRegions, len(kb.Regions))
			}
		}
		// The whole mix as one batch.
		got := post(mux, "/v1/query/batch", `{"queries":[`+strings.Join(bodies, ",")+`]}`)
		items := make([]queryItem, len(qs))
		h.dispatchBatch(context.Background(), qs, items)
		want := encode(struct {
			Results []queryItem `json:"results"`
		}{items})
		if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want) {
			t.Fatalf("d=%d batch: got %d %q\nwant %q", c.d, got.Code, got.Body, want)
		}
	}
	if mostRegions < 100 {
		t.Fatalf("largest kSPR answer has %d regions, want ≥ 100", mostRegions)
	}
}

// TestKSPRItemEdgeCases: hand-built kSPR answers whose rows the memo must
// keep apart — a nil and an empty A with equal B, 0 and -0, a row and its
// negation — and nil or empty regions and halfspaces, each as
// encoding/json renders them.
func TestKSPRItemEdgeCases(t *testing.T) {
	neg0 := math.Copysign(0, -1)
	req := httptest.NewRequest(http.MethodPost, "/v1/query", nil)
	for _, regions := range [][]tlx.Region{
		nil,
		{},
		{{}, {Halfspaces: []tlx.Halfspace{}}},
		{{Halfspaces: []tlx.Halfspace{{A: nil, B: 1}, {A: []float64{}, B: 1}, {A: nil, B: 1}, {A: []float64{}, B: 1}}}},
		{{Halfspaces: []tlx.Halfspace{{A: []float64{0}, B: 0}, {A: []float64{neg0}, B: neg0}, {A: []float64{0}, B: neg0}}},
			{Halfspaces: []tlx.Halfspace{{A: []float64{neg0}, B: neg0}, {A: []float64{0}, B: 0}}}},
		{{Halfspaces: []tlx.Halfspace{{A: []float64{1, -0.5}, B: 0.5}, {A: []float64{-1, 0.5}, B: -0.5}, {A: []float64{1e-7, 2e21}, B: 0.5}}},
			{Halfspaces: []tlx.Halfspace{{A: []float64{-1, 0.5}, B: -0.5}, {A: []float64{1, -0.5}, B: 0.5}}}},
	} {
		it := queryItem{Result: &ksprBody{Regions: regions}, Stats: &queryStatsBody{VisitedCells: len(regions)}, LSN: 7}
		want, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		writeItems(w, req, []queryItem{it}, false)
		if w.Code != http.StatusOK || w.Body.String() != string(want)+"\n" {
			t.Fatalf("got %d %q\nwant %s", w.Code, w.Body, want)
		}
	}
}

// TestRefusedValueIs500: a body encoding/json refuses (NaN, ±Inf) answers
// 500 with the error envelope naming encoding/json's own error — never a
// 200 with an empty body. Both writers: writeJSON, and the query item
// writer on a single item and inside a batch, through the encoder and
// through the kSPR row appender.
func TestRefusedValueIs500(t *testing.T) {
	check := func(name string, w *httptest.ResponseRecorder, refused any) {
		t.Helper()
		_, err := json.Marshal(refused)
		if err == nil {
			t.Fatalf("%s: json.Marshal accepted the value", name)
		}
		want, _ := json.Marshal(errorBody{Error: err.Error()})
		if w.Code != http.StatusInternalServerError || w.Body.String() != string(want)+"\n" ||
			w.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: got %d %q, want 500 %s", name, w.Code, w.Body, want)
		}
	}
	w := httptest.NewRecorder()
	bad := oruBody{Options: []int{1}, Rho: math.NaN()}
	writeJSON(w, http.StatusOK, bad)
	check("writeJSON", w, bad)

	stats := &queryStatsBody{VisitedCells: 1}
	oru := queryItem{Result: &bad, Stats: stats}
	kspr := queryItem{Stats: stats, Result: &ksprBody{Regions: []tlx.Region{
		{Halfspaces: []tlx.Halfspace{{A: []float64{1, 0}, B: 1}}},
		{Halfspaces: []tlx.Halfspace{{A: []float64{1, 0}, B: 1}, {A: []float64{0, math.Inf(-1)}, B: 0}}},
	}}}
	fine := queryItem{Result: &maxrankBody{Rank: 2}, Stats: stats}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", nil)
	for name, it := range map[string]queryItem{"oru": oru, "kspr": kspr} {
		w = httptest.NewRecorder()
		writeItems(w, req, []queryItem{it}, false)
		check(name+" single", w, it)
		w = httptest.NewRecorder()
		writeItems(w, req, []queryItem{fine, it, errItem(tlx.ErrBeyondTau)}, true)
		check(name+" batch", w, it)
	}
	// The pooled writer carries nothing from a refused body into the next.
	w = httptest.NewRecorder()
	writeItems(w, req, []queryItem{kspr, fine}, true)
	w = httptest.NewRecorder()
	writeItems(w, req, []queryItem{fine}, false)
	if want, _ := json.Marshal(fine); w.Code != http.StatusOK || w.Body.String() != string(want)+"\n" {
		t.Fatalf("after a refused body: got %d %q, want 200 %s", w.Code, w.Body, want)
	}
}
