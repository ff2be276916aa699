package index

import (
	"io"
	"math/rand"
	"testing"

	"tlevelindex/internal/geom"
)

func benchIndex(b *testing.B, n, d, tau int) *Index {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	ix, err := Build(randData(rng, n, d), Config{Algorithm: PBAPlus, Tau: tau})
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

func BenchmarkRegionReconstruction(b *testing.B) {
	ix := benchIndex(b, 500, 3, 4)
	ids := ix.Levels[ix.Tau]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Region(ids[i%len(ids)])
	}
}

func BenchmarkResultSetDerivation(b *testing.B) {
	ix := benchIndex(b, 500, 3, 4)
	ids := ix.Levels[ix.Tau]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.ResultSet(ids[i%len(ids)])
	}
}

func BenchmarkPointLocationWalk(b *testing.B) {
	ix := benchIndex(b, 500, 3, 4)
	rng := rand.New(rand.NewSource(2))
	points := make([][]float64, 64)
	for i := range points {
		points[i] = randReduced(rng, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopK(points[i%len(points)], ix.Tau)
	}
}

func BenchmarkSerializeWrite(b *testing.B) {
	ix := benchIndex(b, 500, 3, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCellFeasibility(b *testing.B) {
	ix := benchIndex(b, 500, 3, 4)
	ids := ix.Levels[ix.Tau]
	regions := make([]*geom.Region, len(ids))
	for i, id := range ids {
		regions[i] = ix.Region(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !regions[i%len(regions)].Feasible() {
			b.Fatal("built cell must be feasible")
		}
	}
}

func BenchmarkMergeLevel(b *testing.B) {
	// Measures the merge bookkeeping (key derivation + rewiring) on a
	// freshly built level; reuses the same index per iteration since merge
	// is idempotent after the first pass.
	ix := benchIndex(b, 500, 3, 4)
	ids := append([]int32(nil), ix.Levels[ix.Tau]...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.mergeLevel(ids, nil)
	}
}
