package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

// The pooled query decoder owns every request's queries, vectors and items
// until the response is sent, and the next request reuses them. These tests
// hold that reuse to what it promises: nothing kept past a request reads
// another request's values, and no request reads another's in flight.

// topkEnvelope renders a /v1/query/batch body of top-k queries, one per
// weight vector, each at k.
func topkEnvelope(ws [][]float64, k int) string {
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i, w := range ws {
		if i > 0 {
			sb.WriteByte(',')
		}
		b, _ := json.Marshal(w)
		fmt.Fprintf(&sb, `{"family":"topk","w":%s,"k":%d}`, b, k)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// TestTracedWeightsOutliveTheDecoder: the flight recorder keeps a traced
// item's weight vector, and that vector must still read as sent after 50
// later envelopes with other vectors have gone through the decoder the
// traced request released. Only the first request of a fresh handler is
// sampled, so the later ones add no traces of their own.
func TestTracedWeightsOutliveTheDecoder(t *testing.T) {
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		t.Fatal(err)
	}
	mux := NewHandler(ix, Config{TraceSample: 1 << 20}).Mux()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w
	}
	traced := [][]float64{{0.125, 0.875}, {0.375, 0.625}}
	if w := serve(http.MethodPost, "/v1/query/batch", topkEnvelope(traced, 2)); w.Code != http.StatusOK {
		t.Fatalf("traced batch: %d %s", w.Code, w.Body)
	}
	for i := range 50 {
		ws := make([][]float64, 8)
		for j := range ws {
			w0 := float64(i*8+j+1) / 1000
			ws[j] = []float64{w0, 1 - w0}
		}
		if w := serve(http.MethodPost, "/v1/query/batch", topkEnvelope(ws, 1)); w.Code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, w.Code, w.Body)
		}
	}
	var out traceOut
	w := serve(http.MethodGet, "/v1/admin/trace?family=topk", "")
	if w.Code != http.StatusOK {
		t.Fatalf("admin/trace: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 1 || len(out.Traces[0].Queries) != len(traced) {
		t.Fatalf("want one trace of %d queries, got %+v", len(traced), out.Traces)
	}
	for i, q := range out.Traces[0].Queries {
		if !slices.Equal(q.W, traced[i]) {
			t.Fatalf("traced query %d reads w %v, sent %v", i, q.W, traced[i])
		}
	}
}

// TestConcurrentEnvelopesKeepTheirOwnAnswers: 8 clients post distinct
// 64-item top-k envelopes at once, 10 each, and every reply must carry the
// answers to its own request's vectors, as the index gives them. Run under
// -race (make race), this is also the check that no two requests share a
// decoder.
func TestConcurrentEnvelopesKeepTheirOwnAnswers(t *testing.T) {
	const clients, rounds, items, k = 8, 10, 64, 3
	ix, err := tlx.Build(datagen.Generate(datagen.IND, 400, 3, 5), 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(ix, Config{}).Mux())
	t.Cleanup(srv.Close)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				ws := make([][]float64, items)
				want := make([][]int, items)
				for i := range ws {
					a := float64(1+(c*rounds+r)*items+i) / float64(2*clients*rounds*items)
					ws[i] = []float64{a, (1 - a) / 3, 2 * (1 - a) / 3}
					opts, err := ix.TopK(ws[i], k)
					if err != nil {
						t.Error(err)
						return
					}
					want[i] = opts
				}
				resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json",
					strings.NewReader(topkEnvelope(ws, k)))
				if err != nil {
					t.Error(err)
					return
				}
				var got struct {
					Results []struct {
						Result struct {
							Options []int `json:"options"`
						} `json:"result"`
					} `json:"results"`
				}
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(got.Results) != items {
					t.Errorf("client %d round %d: status %d, %d results, %v", c, r, resp.StatusCode, len(got.Results), err)
					return
				}
				for i, it := range got.Results {
					if !reflect.DeepEqual(it.Result.Options, want[i]) {
						t.Errorf("client %d round %d item %d: options %v, want %v", c, r, i, it.Result.Options, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
