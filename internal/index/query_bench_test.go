package index

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"tlevelindex/datagen"
	"tlevelindex/internal/geom"
)

// End-to-end query benchmarks over one canonical built index (IND n=500,
// d=3, τ=4, PBA⁺, fixed seed). These are the serving-layer hot paths: the
// numbers land in BENCH_query.json via cmd/benchjson and `make bench-query`
// gates them against the committed baseline. Probe weights and focal
// options are precomputed outside the timed loop so the measurements are
// pure traversal cost.

const (
	qbN   = 500
	qbD   = 3
	qbTau = 4
)

var (
	qbOnce sync.Once
	qbIx   *Index
)

// queryBenchIndex builds (once) the canonical index shared by all query
// benchmarks.
func queryBenchIndex(b *testing.B) *Index {
	b.Helper()
	qbOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		ix, err := Build(randData(rng, qbN, qbD), Config{Algorithm: PBAPlus, Tau: qbTau})
		if err != nil {
			b.Fatal(err)
		}
		qbIx = ix
	})
	return qbIx
}

// qbFocals returns filtered option ids that actually appear within the
// materialized levels, so every KSPR answer is non-empty.
func qbFocals(b *testing.B, ix *Index) []int32 {
	b.Helper()
	var out []int32
	for l := 1; l <= ix.Tau; l++ {
		for _, id := range ix.Levels[l] {
			out = append(out, ix.Cells[id].Opt)
		}
		if len(out) >= 32 {
			break
		}
	}
	if len(out) == 0 {
		b.Fatal("no focal options")
	}
	return out
}

func qbPoints(n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	out := make([][]float64, n)
	for i := range out {
		out[i] = randReduced(rng, dim)
	}
	return out
}

func BenchmarkKSPR(b *testing.B) {
	ix := queryBenchIndex(b)
	focals := qbFocals(b, ix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ix.KSPR(qbTau, focals[i%len(focals)])
		if res.Stats.VisitedCells == 0 {
			b.Fatal("empty traversal")
		}
	}
}

func BenchmarkUTK(b *testing.B) {
	ix := queryBenchIndex(b)
	box := geom.NewBox([]float64{0.25, 0.25}, []float64{0.4, 0.4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ix.UTK(qbTau, box)
		if len(res.Partitions) == 0 {
			b.Fatal("empty UTK answer")
		}
	}
}

func BenchmarkORU(b *testing.B) {
	ix := queryBenchIndex(b)
	pts := qbPoints(64, qbD-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ix.ORU(qbTau, pts[i%len(pts)], 2*qbTau)
		if len(res.Options) == 0 {
			b.Fatal("empty ORU answer")
		}
	}
}

// BenchmarkCellRows is one visit's geometry, a window of the rows column:
// "level1" cycles through the level-1 cells, "deep" through the level-τ
// ones, "analytic" through every level of the load benchmark's `analytic`
// index. None allocates. fill-ms and bytes are those levels' fill on a
// freshly loaded copy of the index, as the first queries after a publish
// or a load pay it, and the heap the filled slabs hold.
func BenchmarkCellRows(b *testing.B) {
	for _, c := range []struct {
		name   string
		index  func(*testing.B) *Index
		lo, hi int
	}{{"level1", queryBenchIndex, 1, 1}, {"deep", queryBenchIndex, qbTau, qbTau}, {"analytic", analyticIndex, 1, analyticTau}} {
		b.Run(c.name, func(b *testing.B) {
			ix := reloaded(b, c.index(b))
			var ids []int32
			size := 0
			start := time.Now()
			for l := c.lo; l <= c.hi; l++ {
				size += rowsColumnBytes(ix, l)
				ids = append(ids, ix.Levels[l]...)
			}
			fill := time.Since(start)
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n += len(ix.RowsInto(ids[i%len(ids)]))
			}
			b.StopTimer()
			if n < b.N*(ix.RDim()+1) {
				b.Fatal("cells without their simplex rows")
			}
			b.ReportMetric(float64(fill.Microseconds())/1000, "fill-ms")
			b.ReportMetric(float64(size), "bytes")
		})
	}
}

// reloaded returns a copy of ix through its snapshot: same cells, every
// derived column unfilled.
func reloaded(tb testing.TB, ix *Index) *Index {
	tb.Helper()
	var snap bytes.Buffer
	if _, err := ix.WriteTo(&snap); err != nil {
		tb.Fatal(err)
	}
	out, err := Read(&snap)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// rowsColumnBytes fills level l of the rows column and returns the heap its
// two slabs hold: each row slot a Halfspace header and RDim coefficients.
func rowsColumnBytes(ix *Index, l int) int {
	rows := ix.levelRows(ix.flat, int32(l))
	return cap(rows) * (int(unsafe.Sizeof(geom.Halfspace{})) + 8*ix.RDim())
}

func BenchmarkTopK(b *testing.B) {
	ix := queryBenchIndex(b)
	pts := qbPoints(64, qbD-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := ix.TopK(pts[i%len(pts)], qbTau)
		if len(out) != qbTau {
			b.Fatal("short TopK answer")
		}
	}
}

// qbBatch is the batch size of BenchmarkKSPRBatch; its ns/op is per item
// (the loop advances b.N by the batch size).
const qbBatch = 64

// BenchmarkKSPRBatch models skewed focal traffic (8 popular options across
// a 64-query batch). Each item is one column lookup, repeated focal or not,
// so the per-item number is BenchmarkKSPR's plus the batch's own slice.
func BenchmarkKSPRBatch(b *testing.B) {
	ix := queryBenchIndex(b)
	focals := qbFocals(b, ix)
	batch := make([]int32, qbBatch)
	for i := range batch {
		batch[i] = focals[i%8]
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += qbBatch {
		out, err := ix.KSPRBatchCtx(ctx, qbTau, batch)
		if err != nil || out[0].Stats.VisitedCells == 0 {
			b.Fatal("bad batch answer")
		}
	}
}

func BenchmarkLocate(b *testing.B) {
	ix := queryBenchIndex(b)
	pts := qbPoints(64, qbD-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, level := ix.Locate(pts[i%len(pts)], qbTau); level != qbTau {
			b.Fatal("short locate")
		}
	}
}

// BenchmarkLocateTopK is the point-location fast path: one walk yielding
// both the chain key and the ranked answer. Compare against BenchmarkLocate
// — the delta is the whole cost of answering top-k once the cell is found.
func BenchmarkLocateTopK(b *testing.B) {
	ix := queryBenchIndex(b)
	pts := qbPoints(64, qbD-1)
	ctx := context.Background()
	var buf [qbTau]int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, res, _, err := ix.LocateTopK(ctx, pts[i%len(pts)], qbTau, buf[:0])
		if err != nil || len(res) != qbTau {
			b.Fatal("short fast-path answer")
		}
	}
}

// analyticTau is the depth of the load benchmark's `analytic` index.
const analyticTau = 9

var (
	analyticOnce sync.Once
	analyticIx   *Index
)

// analyticIndex builds (once) the load benchmark's `analytic` index: IND
// n=8000, d=3, τ=9, ~2 s.
func analyticIndex(b *testing.B) *Index {
	b.Helper()
	analyticOnce.Do(func() {
		ix, err := Build(datagen.Generate(datagen.IND, 8000, 3, 1), Config{Tau: analyticTau})
		if err != nil {
			b.Fatal(err)
		}
		analyticIx = ix
	})
	return analyticIx
}

// BenchmarkAnalyticFamilies profiles the three families of the load
// benchmark's `analytic` workload one at a time, on that workload's own
// index and parameter draws: k uniform in 1..τ−1, a uniform simplex point,
// a 0.03-wide UTK box, m = τ+4 for ORU, a kSPR focal that holds some rank.
// Beside ns/op it reports the p99, cells visited and LPCalls per query — in
// UTK the box candidates, in ORU the point-to-cell distances computed — UTK's
// partitions per query, and for ORU the projection kernel's steps per
// distance. The box and rows columns are filled before timing;
// BenchmarkUTKBoxFill and BenchmarkCellRows/analytic measure the fills. It
// is the table in EXPERIMENTS.md §"Where analytic's time goes", and
// bench-smoke gates it.
func BenchmarkAnalyticFamilies(b *testing.B) {
	const tau = analyticTau
	ix := analyticIndex(b)
	for l := 1; l <= tau; l++ {
		ix.levelBoxes(l)
	}
	var focals []int32
	seen := make(map[int32]bool)
	for l := 1; l <= tau; l++ {
		for _, id := range ix.Levels[l] {
			if o := ix.Cells[id].Opt; !seen[o] {
				seen[o] = true
				focals = append(focals, o)
			}
		}
	}
	ctx := context.Background()
	parts := 0
	families := []struct {
		name string
		run  func(k int, x []float64, focal int32) QueryStats
	}{
		{"utk", func(k int, x []float64, _ int32) QueryStats {
			lo := []float64{max(x[0]-0.015, 0), max(x[1]-0.015, 0)}
			res, _ := ix.UTKCtx(ctx, k, geom.NewBox(lo, []float64{lo[0] + 0.03, lo[1] + 0.03}))
			parts += len(res.Partitions)
			return res.Stats
		}},
		{"oru", func(k int, x []float64, _ int32) QueryStats {
			res, _ := ix.ORUCtx(ctx, k, x, tau+4)
			return res.Stats
		}},
		{"kspr", func(k int, _ []float64, focal int32) QueryStats {
			res, _ := ix.KSPRCtx(ctx, k, focal)
			return res.Stats
		}},
	}
	for _, f := range families {
		b.Run(f.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			xs := datagen.Preferences(datagen.PrefUniform, b.N, 3, 1)
			ks, fs := make([]int, b.N), make([]int32, b.N)
			for i := range ks {
				ks[i], fs[i] = 1+rng.Intn(tau-1), focals[rng.Intn(len(focals))]
			}
			lat := make([]time.Duration, b.N)
			var sum QueryStats
			parts = 0
			calls, steps := geom.ProjectionStats()
			b.ResetTimer()
			for i := range lat {
				start := time.Now()
				st := f.run(ks[i], geom.Reduce(xs[i]), fs[i])
				lat[i] = time.Since(start)
				sum.VisitedCells += st.VisitedCells
				sum.LPCalls += st.LPCalls
			}
			b.StopTimer()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-us")
			b.ReportMetric(float64(sum.VisitedCells)/float64(b.N), "visited/op")
			b.ReportMetric(float64(sum.LPCalls)/float64(b.N), "lpcalls/op")
			if parts > 0 {
				b.ReportMetric(float64(parts)/float64(b.N), "partitions/op")
			}
			if c, s := geom.ProjectionStats(); c > calls {
				b.ReportMetric(float64(s-steps)/float64(c-calls), "steps/projection")
			}
		})
	}
}

// BenchmarkUTKBoxFill is the box column's fill on the `analytic` index: one
// op is one cell's bounding box, cycling through levels 1..τ, and fill-ms is
// one fill of every level on a freshly loaded copy, as the first UTK at each
// level pays it — the level's rows column included.
func BenchmarkUTKBoxFill(b *testing.B) {
	ix := reloaded(b, analyticIndex(b))
	var cells []int32
	start := time.Now()
	for l := 1; l <= analyticTau; l++ {
		ix.fillBoxes(ix.Levels[l])
		cells = append(cells, ix.Levels[l]...)
	}
	fill := time.Since(start)
	dim := ix.RDim()
	box := make([]float64, 2*dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.RowsInto(cells[i%len(cells)]).BoundingBox(box[:dim], box[dim:])
	}
	b.StopTimer()
	b.ReportMetric(float64(fill.Microseconds())/1000, "fill-ms")
	b.ReportMetric(float64(len(cells)), "cells")
}
