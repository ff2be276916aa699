package serve

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

// TestBackendReadersAcrossPublishes runs UTK and ORU readers through a
// Backend — its read lock, its index pointer — while a writer publishes 200
// insert batches, each of which adds a child to the entry cell and so
// replaces the frozen entry table the readers' traversals serve level 1
// from, and the box column every UTK scans. Every reader runs UTK at every
// level, so after each publish several readers race to the first fill of
// each level's boxes. Under -race (make race) this is the check that the
// table is only ever shared immutable and that a level's fill is published
// once to all of its readers; without it, that no reader is left with an
// answer from a table or a column the last publish retired.
func TestBackendReadersAcrossPublishes(t *testing.T) {
	const tau = 3
	ix, err := tlx.Build(datagen.Generate(datagen.IND, 60, 3, 27), tau)
	if err != nil {
		t.Fatal(err)
	}
	var be Backend = &memBackend{ix: ix}
	ctx := context.Background()
	type answer struct {
		utk [tau]*tlx.UTKResult
		oru *tlx.ORUResult
	}
	query := func(g int) (a answer) {
		lo := []float64{0.05 * float64(g), 0.4 - 0.04*float64(g)}
		hi := []float64{lo[0] + 0.25, lo[1] + 0.25}
		w := []float64{0.1 + 0.1*float64(g), 0.5 - 0.05*float64(g), 0}
		w[2] = 1 - w[0] - w[1]
		be.Mutex().RLock()
		defer be.Mutex().RUnlock()
		var err error
		for k := range a.utk {
			if a.utk[k], err = be.Index().UTKContext(ctx, k+1, lo, hi); err != nil {
				t.Error(err)
			}
		}
		if a.oru, err = be.Index().ORUContext(ctx, 1+(g+1)%3, w, 5); err != nil {
			t.Error(err)
		}
		return a
	}
	const readers, publishes = 6, 200
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
		be.Mutex().RLock()
		rank, err := be.Index().MaxRank(res[0].ID)
		be.Mutex().RUnlock()
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
		if want := query(g); !reflect.DeepEqual(got, want) {
			t.Errorf("reader %d after the last publish:\n got %+v %+v\nwant %+v %+v", g, got.utk, got.oru, want.utk, want.oru)
		}
		if slices.ContainsFunc(got.utk[:], func(r *tlx.UTKResult) bool { return len(r.Partitions) == 0 }) || len(got.oru.Options) == 0 {
			t.Errorf("reader %d: empty answers %+v %+v", g, got.utk, got.oru)
		}
	}
}
