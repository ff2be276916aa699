package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	tlx "tlevelindex"
	"tlevelindex/datagen"
	"tlevelindex/internal/obs"
	"tlevelindex/internal/store"
)

// expIngest measures write throughput through the full durable path
// (engine + WAL) in the three shapes the serve layer offers: one record
// per call, an explicit batch, and many concurrent single-record writers
// riding the group-commit protocol. The batch should win on records/sec
// (the engine pays one rebuild for the batch and the WAL one fsync),
// and both the batch and the concurrent writers should pay well under one
// fsync per record; the sequential single-record path is the 1.0
// fsyncs/rec baseline.
func expIngest(sc scale) {
	// d=2 with never-dominated arrivals: every record survives the
	// τ-skyband filter, is WAL-logged, and grows the index — the regime
	// where the per-record rebuild is the cost batching shares.
	n, d, tau := sc.defaultN, 2, sc.defaultTau
	const records = 32
	const writers = 8
	base := datagen.Generate(datagen.IND, n, d, 9)
	for _, opt := range base {
		for i := range opt {
			opt[i] *= 0.5
		}
	}
	opts := ingestSphereOpts(records, 42)
	fmt.Printf("-- ingest throughput (IND, n=%d, d=%d, τ=%d, %d records) --\n",
		n, d, tau, records)

	fsyncs := obs.Default().Counter("tlx_wal_fsyncs_total",
		"WAL fsync calls. Under group commit this grows slower than tlx_wal_appends_total; the ratio is fsyncs per record.")

	openIngest := func(dir string) *store.Store {
		st, err := store.Open(store.Options{Dir: dir}, func() (*tlx.Index, error) {
			return tlx.Build(base, tau, tlx.WithSeed(7), tlx.WithWorkers(workersFlag))
		})
		if err != nil {
			panic(fmt.Sprintf("lvbench: store open failed: %v", err))
		}
		return st
	}
	root, err := os.MkdirTemp("", "lvbench-ingest-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(root)

	// Sequential single-record inserts: the per-record reference.
	st := openIngest(filepath.Join(root, "single"))
	f0 := fsyncs.Value()
	start := time.Now()
	for _, o := range opts {
		if _, _, err := st.InsertLSN(o); err != nil {
			panic(fmt.Sprintf("lvbench: insert failed: %v", err))
		}
	}
	singleDur := time.Since(start)
	singleFsyncs := fsyncs.Value() - f0
	st.Close()

	// One explicit batch: amortized engine maintenance, one fsync group.
	st = openIngest(filepath.Join(root, "batch"))
	f0 = fsyncs.Value()
	start = time.Now()
	results, group, err := st.InsertBatchLSN(opts)
	if err != nil {
		panic(fmt.Sprintf("lvbench: batch insert failed: %v", err))
	}
	batchDur := time.Since(start)
	batchFsyncs := fsyncs.Value() - f0
	for i, r := range results {
		if r.Err != nil {
			panic(fmt.Sprintf("lvbench: batch item %d rejected: %v", i, r.Err))
		}
	}
	st.Close()

	// Concurrent single-record writers: group commit coalesces their
	// fsyncs (and the engine batches whatever queued behind the leader).
	st = openIngest(filepath.Join(root, "group"))
	f0 = fsyncs.Value()
	start = time.Now()
	var wg sync.WaitGroup
	next := make(chan []float64, records)
	for _, o := range opts {
		next <- o
	}
	close(next)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range next {
				if _, _, err := st.InsertLSN(o); err != nil {
					panic(fmt.Sprintf("lvbench: concurrent insert failed: %v", err))
				}
			}
		}()
	}
	wg.Wait()
	groupDur := time.Since(start)
	groupFsyncs := fsyncs.Value() - f0
	st.Close()

	recsPerSec := func(d time.Duration) string {
		return fmt.Sprintf("%.2f", float64(records)/d.Seconds())
	}
	perRec := func(d time.Duration) string { return fmtDur(d / records) }
	fPerRec := func(f uint64) string {
		return fmt.Sprintf("%.3f", float64(f)/float64(records))
	}
	printTable(
		[]string{"path", "records/sec", "per record", "fsyncs/rec"},
		[][]string{
			{"single (sequential)", recsPerSec(singleDur), perRec(singleDur), fPerRec(singleFsyncs)},
			{fmt.Sprintf("batch (%d records)", records), recsPerSec(batchDur), perRec(batchDur), fPerRec(batchFsyncs)},
			{fmt.Sprintf("group commit (%d writers)", writers), recsPerSec(groupDur), perRec(groupDur), fPerRec(groupFsyncs)},
		})
	fmt.Printf("  batch speedup over single: %.2fx; batch rebuild %.1f ms shared by %d records\n",
		float64(singleDur)/float64(batchDur), float64(group.FinalizeNS)/1e6, group.Logged)
}

// ingestSphereOpts samples options on the L2 sphere of radius 0.99 in the
// positive orthant (d=2): an anti-chain in generic position that nothing
// in [0, 0.5]^2 dominates, so every record is accepted and logged.
func ingestSphereOpts(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	opts := make([][]float64, n)
	for i := range opts {
		v := []float64{0.1 + 0.9*rng.Float64(), 0.1 + 0.9*rng.Float64()}
		norm := math.Hypot(v[0], v[1])
		opts[i] = []float64{0.99 * v[0] / norm, 0.99 * v[1] / norm}
	}
	return opts
}
