package replicate

import (
	"testing"
	"time"

	"tlevelindex/datagen"
)

// BenchmarkFollowerInstall is what a follower pays per publish: one op is
// one fetch-and-install of an index newer than the follower's own — the
// primary's serialize, the loopback transfer, the fsync, the mmap open and
// the swap. The primary is a store over IND n=8000, d=3, τ=9, seed 1.
// Before each op, untimed, the primary takes arrivals from the same
// distribution until one is accepted, which rebuilds its index; the mean
// of those rebuilds is the rebuild-ms extra, the cost a follower that
// replayed records would pay for the same publish.
func BenchmarkFollowerInstall(b *testing.B) {
	srv, st := newPrimaryOver(b, b.TempDir(), datagen.Generate(datagen.IND, 8000, 3, 1), 9)
	// The follow loop is parked on an hour-long tick: the benchmark's own
	// goroutine does every fetch, so no poll latency enters the timing.
	f, err := Start(Options{PrimaryURL: srv.URL, Dir: b.TempDir(), PollInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	arrivals := datagen.Generate(datagen.IND, 1<<16, 3, 2)
	next := 0
	var rebuildNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for accepted := false; !accepted; next++ {
			_, gs, err := st.InsertBatchLSN(arrivals[next : next+1])
			if err != nil {
				b.Fatal(err)
			}
			accepted = gs.Accepted > 0
			rebuildNS += gs.FinalizeNS
		}
		b.StartTimer()
		if err := f.fetch(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got, want := f.AppliedLSN(), st.AppliedLSN(); got != want {
		b.Fatalf("follower at LSN %d, primary at %d", got, want)
	}
	b.ReportMetric(float64(rebuildNS)/1e6/float64(b.N), "rebuild-ms")
}
