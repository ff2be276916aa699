package index

import (
	"fmt"
	"testing"

	"tlevelindex/datagen"
	"tlevelindex/internal/lp"
)

// BenchmarkBuild is one PBA⁺ build per op of the load benchmark's data, IND
// n=8000 seed 1, at its own shape (d=3, τ=9) and at d=4, τ=4, with the
// default worker count. Beside ns/op and allocations it reports the index's
// cells and its LP calls, so a change that moves ns/op by building a
// different index shows in the same row, and the simplex pivots per build
// (lp.Pivots' delta over the timed builds, divided by them), so one that
// moves it by pivoting less shows too. `make build-bench` gates it in
// BENCH_build.json.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct{ d, tau int }{{3, 9}, {4, 4}} {
		data := datagen.Generate(datagen.IND, 8000, c.d, 1)
		b.Run(fmt.Sprintf("d=%d,tau=%d", c.d, c.tau), func(b *testing.B) {
			b.ReportAllocs()
			var ix *Index
			pivots := lp.Pivots()
			for i := 0; i < b.N; i++ {
				var err error
				if ix, err = Build(data, Config{Algorithm: PBAPlus, Tau: c.tau}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ix.NumCells()), "cells")
			b.ReportMetric(float64(ix.Stats.LPCalls), "lpcalls")
			b.ReportMetric(float64(lp.Pivots()-pivots)/float64(b.N), "pivots")
		})
	}
}

// BenchmarkExtendTau is one ExtendTau per op, IND n=2000 d=3 seed 1 from
// τ=3 to τ=5 — the first k > τ of the paper's Figure 14, which rebuilds the
// index over the pool grown to the 5-skyband — with the τ=3 build of each
// op outside the timer. `make build-bench` gates it in BENCH_build.json.
func BenchmarkExtendTau(b *testing.B) {
	data := datagen.Generate(datagen.IND, 2000, 3, 1)
	b.ReportAllocs()
	var ix *Index
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var err error
		if ix, err = Build(data, Config{Algorithm: PBAPlus, Tau: 3}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := ix.ExtendTau(5); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ix.NumCells()), "cells")
	b.ReportMetric(float64(ix.Stats.LPCalls), "lpcalls")
}
