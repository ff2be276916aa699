package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	tlx "tlevelindex"
)

// The serve benchmarks use the same canonical workload as the query-layer
// benchmarks in internal/index: n=500, d=3, tau=4, seed 42 — so the serving
// overhead can be read against the raw traversal numbers in
// BENCH_query.json.
const (
	sbN   = 500
	sbD   = 3
	sbTau = 4
)

var (
	sbOnce  sync.Once
	sbIndex *tlx.Index
)

// serveBenchIndex builds the canonical benchmark index once. The
// benchmarks never insert or query beyond tau, so sharing the index across
// handlers is safe: every request is a pure lookup.
func serveBenchIndex(b *testing.B) *tlx.Index {
	b.Helper()
	sbOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		data := make([][]float64, sbN)
		for i := range data {
			row := make([]float64, sbD)
			for j := range row {
				row[j] = rng.Float64()
			}
			data[i] = row
		}
		ix, err := tlx.Build(data, sbTau)
		if err != nil {
			b.Fatal(err)
		}
		sbIndex = ix
	})
	return sbIndex
}

// serveBench drives one POST /v1/query body through the full handler stack
// — mux routing, instrumentation, body decode, dispatch, JSON encoding — with
// an in-process recorder, so ns/op is the server-side cost per request
// without socket noise. The request is built once and its body rewound per
// iteration, keeping request construction out of the number.
func serveBench(b *testing.B, h *Handler, body string) {
	b.Helper()
	mux := h.Mux()
	rd := strings.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/query", rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

const (
	sbTopK = `{"family":"topk","w":[0.31,0.27,0.42],"k":4}`
	sbUTK  = `{"family":"utk","lo":[0.3,0.3],"hi":[0.35,0.35],"k":4}`
)

// BenchmarkServeTopK is one top-k request through the whole stack: every
// request walks its cell chain.
func BenchmarkServeTopK(b *testing.B) {
	serveBench(b, NewHandler(serveBenchIndex(b), Config{}), sbTopK)
}

// The flight-recorder cost pair around BenchmarkServeTopK (which runs with
// the recorder at its default-on, 1-in-64-sampled setting): RecorderOff
// disables the recorder outright, TraceAll collects a span tree for every
// request. TopK-vs-RecorderOff is the amortized cost of default sampling
// (should vanish into noise); TraceAll-vs-RecorderOff is the full
// per-request tracing cost — trace id generation, root, item and query
// spans, the trace annotation, and the ring insert.
func BenchmarkServeTopKRecorderOff(b *testing.B) {
	serveBench(b, NewHandler(serveBenchIndex(b), Config{TraceBuffer: -1}), sbTopK)
}

func BenchmarkServeTopKTraceAll(b *testing.B) {
	serveBench(b, NewHandler(serveBenchIndex(b), Config{TraceSample: 1}), sbTopK)
}

// BenchmarkServeUTK is one UTK request through the whole stack: a scan of
// level k's box column for the cells that meet the query box.
func BenchmarkServeUTK(b *testing.B) {
	serveBench(b, NewHandler(serveBenchIndex(b), Config{}), sbUTK)
}

// BenchmarkServeKSPR is one kSPR request through the whole stack, for the
// option and k whose answer has the most regions on the canonical index: a
// read of the option→cells and rows columns, the export copy of the rows,
// and the response writer formatting each distinct row once.
func BenchmarkServeKSPR(b *testing.B) {
	ix := serveBenchIndex(b)
	focal, most := 0, -1
	for f := 0; f < sbN; f++ {
		if res, err := ix.KSPR(sbTau, f); err == nil && len(res.Regions) > most {
			focal, most = f, len(res.Regions)
		}
	}
	serveBench(b, NewHandler(ix, Config{}), fmt.Sprintf(`{"family":"kspr","focal":%d,"k":%d}`, focal, sbTau))
}

// BenchmarkServeWriterTopKParallel is the concurrent-throughput number:
// GOMAXPROCS goroutines hammering one handler, every request a top-k walk
// under the read lock.
func BenchmarkServeWriterTopKParallel(b *testing.B) {
	mux := NewHandler(serveBenchIndex(b), Config{}).Mux()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rd := strings.NewReader(sbTopK)
		req := httptest.NewRequest(http.MethodPost, "/v1/query", rd)
		for pb.Next() {
			rd.Reset(sbTopK)
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
}
