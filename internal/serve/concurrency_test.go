package serve

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

// TestBackendReadersAcrossPublishes runs UTK, ORU and kSPR readers through
// a Backend, holding no lock (the index needs none; the backend's lock is
// the serving tier's writer priority), while a writer publishes 1,000 insert
// batches, each of which adds a child to the entry cell and so publishes a
// new version with its own rows column, the one every reader's cells are
// served from, and box column, the one every UTK scans. Every reader runs
// all three families at every level 1..τ, so after each publish several
// readers race to the first fill of each level's rows and boxes. Under
// -race (make race) this is the check that a version is never written
// once published and that a level's fill is published once to all of its
// readers; without it, that no reader is left with an answer from a
// version the last publish retired. Every reader also asks each family for
// k = τ+1: each is refused with ErrBeyondTau, and every publish still
// lands.
func TestBackendReadersAcrossPublishes(t *testing.T) {
	const tau = 3
	ix, err := tlx.Build(datagen.Generate(datagen.IND, 60, 3, 27), tau)
	if err != nil {
		t.Fatal(err)
	}
	var be Backend = &memBackend{ix: ix}
	ctx := context.Background()
	type answer struct {
		utk  [tau]*tlx.UTKResult
		oru  [tau]*tlx.ORUResult
		kspr [tau]*tlx.KSPRResult
	}
	query := func(g int) (a answer) {
		lo := []float64{0.05 * float64(g), 0.4 - 0.04*float64(g)}
		hi := []float64{lo[0] + 0.25, lo[1] + 0.25}
		w := []float64{0.1 + 0.1*float64(g), 0.5 - 0.05*float64(g), 0}
		w[2] = 1 - w[0] - w[1]
		// The option on top at w holds a rank at every level, so every kSPR
		// answer has regions to export.
		top, err := be.Index().TopKContext(ctx, w, 1)
		if err != nil {
			t.Error(err)
			return a
		}
		for k := range tau {
			if a.utk[k], err = be.Index().UTKContext(ctx, k+1, lo, hi); err != nil {
				t.Error(err)
			}
			if a.oru[k], err = be.Index().ORUContext(ctx, k+1, w, 5); err != nil {
				t.Error(err)
			}
			if a.kspr[k], err = be.Index().KSPRContext(ctx, k+1, top.Options[0]); err != nil {
				t.Error(err)
			}
		}
		_, errTopK := be.Index().TopKContext(ctx, w, tau+1)
		_, errUTK := be.Index().UTKContext(ctx, tau+1, lo, hi)
		_, errORU := be.Index().ORUContext(ctx, tau+1, w, 5)
		_, errKSPR := be.Index().KSPRContext(ctx, tau+1, top.Options[0])
		for _, err := range []error{errTopK, errUTK, errORU, errKSPR} {
			if !errors.Is(err, tlx.ErrBeyondTau) {
				t.Errorf("reader at k = τ+1: err %v, want ErrBeyondTau", err)
			}
		}
		return a
	}
	const readers, publishes = 6, 1000
	var done atomic.Bool
	var wg sync.WaitGroup
	last := make([]answer, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				query(g)
			}
			last[g] = query(g) // after the last publish
		}()
	}
	for i := 0; i < publishes; i++ {
		// Best on one attribute by a growing margin: rank 1 near that corner
		// of the simplex, whatever came before.
		opt := []float64{0.3, 0.3, 0.3}
		opt[i%3] = 1 + 0.001*float64(i)
		res, _, err := be.InsertBatchLSN([][]float64{opt})
		if err != nil || res[0].Err != nil || res[0].ID < 0 {
			t.Fatalf("publish %d: %v %+v", i, err, res)
		}
		rank, err := be.Index().MaxRank(res[0].ID)
		if err != nil || rank != 1 {
			t.Fatalf("publish %d: inserted option has best rank %d (%v): level 1 untouched", i, rank, err)
		}
	}
	done.Store(true)
	wg.Wait()
	if got := be.AppliedLSN(); got != publishes {
		t.Fatalf("applied LSN %d after %d publishes", got, publishes)
	}
	for g, got := range last {
		want := query(g)
		for k := range tau {
			if !reflect.DeepEqual(got.utk[k], want.utk[k]) || !reflect.DeepEqual(got.oru[k], want.oru[k]) ||
				!reflect.DeepEqual(got.kspr[k], want.kspr[k]) {
				t.Errorf("reader %d after the last publish, k=%d:\n got %+v %+v %+v\nwant %+v %+v %+v", g, k+1,
					got.utk[k], got.oru[k], got.kspr[k], want.utk[k], want.oru[k], want.kspr[k])
			}
		}
		if slices.ContainsFunc(got.utk[:], func(r *tlx.UTKResult) bool { return len(r.Partitions) == 0 }) ||
			slices.ContainsFunc(got.oru[:], func(r *tlx.ORUResult) bool { return len(r.Options) == 0 }) ||
			slices.ContainsFunc(got.kspr[:], func(r *tlx.KSPRResult) bool { return len(r.Regions) == 0 }) {
			t.Errorf("reader %d: an empty answer", g)
		}
	}
}
