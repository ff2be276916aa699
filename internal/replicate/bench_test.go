package replicate

import (
	"testing"
	"time"

	"tlevelindex/datagen"
	"tlevelindex/internal/obs"
)

// BenchmarkFollowerInstall is what a follower pays per publish: one op is
// one fetch-and-install of an index newer than the follower's own — the
// primary's serialize, the loopback transfer, the fsync, the heap load and
// the swap. The primary is a store over IND n=8000, d=3, τ=9, seed 1.
// Before each op, untimed, the primary takes arrivals from the same
// distribution until one is accepted, which rebuilds its index; the mean
// of those rebuilds is the rebuild-ms extra, the cost a follower that
// replayed records would pay for the same publish.
//
// The fsync of the slot is the device's, not the code's: it ranges from
// under 1 ms to over 80 ms by disk. Each fetch runs as a traced bootstrap
// into a Recorder; the download span's fsyncMs is reported as the fsync-ms
// extra, and ns/op is the time less the fsync, so the gate holds across
// devices.
func BenchmarkFollowerInstall(b *testing.B) {
	srv, st := newPrimaryOver(b, b.TempDir(), datagen.Generate(datagen.IND, 8000, 3, 1), 9)
	// The follow loop is parked on an hour-long tick: the benchmark's own
	// goroutine does every fetch, so no poll latency enters the timing.
	f, err := Start(Options{PrimaryURL: srv.URL, Dir: b.TempDir(), PollInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	// Room for every trace in each of the recorder's eight shards.
	rec := obs.NewRecorder(8*b.N, -1, nil)
	f.opts.Recorder = rec
	arrivals := datagen.Generate(datagen.IND, 1<<16, 3, 2)
	next := 0
	var rebuildNS int64
	var timed time.Duration
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
		root := f.beginTrace()
		b.StartTimer()
		start := time.Now()
		err := f.fetch()
		timed += time.Since(start)
		b.StopTimer()
		f.endTrace(root, err)
		if err != nil {
			b.Fatal(err)
		}
	}
	if got, want := f.AppliedLSN(), st.AppliedLSN(); got != want {
		b.Fatalf("follower at LSN %d, primary at %d", got, want)
	}
	var fsyncMs float64
	installs := 0
	for _, tr := range rec.Snapshot(0, "", 0) {
		for _, sp := range tr.Spans {
			if v, ok := sp.Get("fsyncMs"); ok && sp.Name == "replicate.download" {
				fsyncMs += v
				installs++
			}
		}
	}
	if installs != b.N {
		b.Fatalf("recorder holds %d downloads, want %d", installs, b.N)
	}
	fsync := time.Duration(fsyncMs * float64(time.Millisecond))
	b.ReportMetric(float64(timed-fsync)/float64(b.N), "ns/op")
	b.ReportMetric(fsyncMs/float64(b.N), "fsync-ms")
	b.ReportMetric(float64(rebuildNS)/1e6/float64(b.N), "rebuild-ms")
}
