package index

import (
	"fmt"
	"testing"

	"tlevelindex/datagen"
)

// BenchmarkBuild is one PBA⁺ build per op of the load benchmark's data, IND
// n=8000 seed 1, at its own shape (d=3, τ=9) and at d=4, τ=4, with the
// default worker count. Beside ns/op and allocations it reports the index's
// cells, its LP calls and the verdict memo's entries, so a change that
// moves ns/op by building a different index shows in the same row. `make
// build-bench` gates it in BENCH_build.json.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct{ d, tau int }{{3, 9}, {4, 4}} {
		data := datagen.Generate(datagen.IND, 8000, c.d, 1)
		b.Run(fmt.Sprintf("d=%d,tau=%d", c.d, c.tau), func(b *testing.B) {
			b.ReportAllocs()
			var ix *Index
			for i := 0; i < b.N; i++ {
				var err error
				if ix, err = Build(data, Config{Algorithm: PBAPlus, Tau: c.tau}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ix.NumCells()), "cells")
			b.ReportMetric(float64(ix.Stats.LPCalls), "lpcalls")
			b.ReportMetric(float64(ix.VerdictEntries()), "verdicts")
		})
	}
}
