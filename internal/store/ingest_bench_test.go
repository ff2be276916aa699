package store

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

// Ingest throughput benchmarks (make ingest-bench → BENCH_ingest.json).
// Every benchmark counts ONE RECORD per op, so ns/op is directly
// comparable across the three shapes:
//
//   - IngestSingle:      the per-record path — one lock hold, one WAL
//     append, one fsync, one full thaw/compact per record.
//   - IngestBatch:       InsertBatchLSN — one lock hold, one fsync group,
//     and one thaw/compact for the whole batch.
//   - IngestGroupCommit: ≥ 8 concurrent single-record writers coalescing
//     through the group-commit protocol; the fsyncs/rec metric is the
//     fleet-wide fsync bill divided by records logged, and must sit well
//     under 1 when the group commit is doing its job.
//
// The base index is the medium lvbench scale (n=8000) at d=2. Realistic
// never-dominated arrivals make per-record maintenance genuinely expensive
// (hundreds of ms each on the sequential path), which is exactly the
// regime batch amortization exists for. Run with a fixed -benchtime (the
// Makefile uses 64x) so the skyband growth during the run is identical
// between baseline and fresh runs.

const ingestBaseN = 8000

// ingestBase is medium-scale IND data squeezed into [0, 0.5]^2 so that no
// base option can dominate the benchmark's insert stream.
func ingestBase() [][]float64 {
	data := datagen.Generate(datagen.IND, ingestBaseN, 2, 9)
	for _, opt := range data {
		for i := range opt {
			opt[i] *= 0.5
		}
	}
	return data
}

// ingestOptions builds n options on the L2 sphere of radius 0.99 in the
// positive orthant: a genuine anti-chain in generic position (sphere points
// cannot dominate each other), with max coordinate ≥ 0.99/√2 > 0.5 so
// nothing in the base can dominate them either. Every record therefore
// survives the τ-skyband filter, gets WAL-logged, and grows the index the
// way real top-ranked arrivals do — ns/op is an honest per-logged-record
// number over a non-degenerate insert stream. (A straight-line ramp here
// is a trap: collinear-in-score-space options collapse the cell structure
// and make every insert artificially cheap.)
func ingestOptions(n int) [][]float64 {
	rng := rand.New(rand.NewSource(42))
	opts := make([][]float64, n)
	for i := range opts {
		v := []float64{0.1 + 0.9*rng.Float64(), 0.1 + 0.9*rng.Float64()}
		norm := math.Hypot(v[0], v[1])
		v[0], v[1] = 0.99*v[0]/norm, 0.99*v[1]/norm
		opts[i] = v
	}
	return opts
}

func newIngestStore(b *testing.B) *Store {
	b.Helper()
	st, err := Open(Options{Dir: b.TempDir()}, func() (*tlx.Index, error) {
		return tlx.Build(ingestBase(), 4, tlx.WithSeed(7))
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// reportFsyncsPerRecord turns the delta of the process-global WAL fsync
// counter into the benchmark's fsyncs/rec column. Benchmarks run
// sequentially with -run xxx, so nothing else moves the counter.
func reportFsyncsPerRecord(b *testing.B, fsyncs0 uint64, records int) {
	if records > 0 {
		b.ReportMetric(float64(walFsyncsTotal.Value()-fsyncs0)/float64(records), "fsyncs/rec")
	}
}

func BenchmarkIngestSingle(b *testing.B) {
	st := newIngestStore(b)
	opts := ingestOptions(b.N)
	fsyncs0 := walFsyncsTotal.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.InsertLSN(opts[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportFsyncsPerRecord(b, fsyncs0, b.N)
}

func BenchmarkIngestBatch(b *testing.B) {
	for _, size := range []int{16, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			st := newIngestStore(b)
			opts := ingestOptions(b.N)
			fsyncs0 := walFsyncsTotal.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				end := i + size
				if end > b.N {
					end = b.N
				}
				if _, _, err := st.InsertBatchLSN(opts[i:end]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportFsyncsPerRecord(b, fsyncs0, b.N)
		})
	}
}

func BenchmarkIngestGroupCommit(b *testing.B) {
	st := newIngestStore(b)
	opts := ingestOptions(b.N)
	// RunParallel spins up parallelism * GOMAXPROCS goroutines; scale the
	// factor so at least 8 writers contend for the leader slot regardless
	// of the machine's core count.
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((8 + procs - 1) / procs)
	var next atomic.Int64
	fsyncs0 := walFsyncsTotal.Value()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) - 1
			if _, _, err := st.InsertLSN(opts[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	reportFsyncsPerRecord(b, fsyncs0, b.N)
}

// BenchmarkRecoverTail is one crash recovery per op (make recovery-bench →
// BENCH_recovery.json): Open loads the snapshot of the ingest base and
// replays a 64-record WAL tail of accepted inserts as one batch. The store
// is killed, not closed, after every recovery, so the directory keeps its
// tail for the next one.
func BenchmarkRecoverTail(b *testing.B) {
	const tail = 64
	dir := b.TempDir()
	st, err := Open(Options{Dir: dir}, func() (*tlx.Index, error) {
		return tlx.Build(ingestBase(), 4, tlx.WithSeed(7))
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := st.InsertBatchLSN(ingestOptions(tail)); err != nil {
		b.Fatal(err)
	}
	st.kill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(Options{Dir: dir}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if st.replayed != tail {
			b.Fatalf("recovery replayed %d records, want %d", st.replayed, tail)
		}
		st.kill()
	}
}
