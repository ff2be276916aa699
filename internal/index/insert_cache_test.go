package index

import (
	"fmt"
	"testing"

	"tlevelindex/internal/geom"
)

// TestInsertCacheRemap: after a compact, entries sit at their cells' new
// ids, a certificate whose parent was tombstoned is gone (the others name
// the parent's new id), and an entry whose cell was tombstoned keeps nothing
// a later cell taking that id could mistake for its own.
func TestInsertCacheRemap(t *testing.T) {
	ic := newInsertCache()
	ic.grow(6)
	for i := range ic.cells {
		e := &ic.cells[i]
		e.gen = uint32(10 + i)
		e.key = fmt.Sprint("set", i)
		e.r = []int32{int32(i)}
		e.def2 = cachedRegion{reg: geom.NewRegion(1), r: []int32{int32(i)}, npts: 7}
		e.bounded = boundedRegion{reg: geom.NewRegion(1), r: []int32{int32(i)}, bound: []int32{9}}
	}
	ic.cells[3].pairs = []pairState{{parent: 2, cGen: 13, pGen: 12, failed: true}}
	ic.cells[5].pairs = []pairState{
		{parent: 3, cGen: 15, pGen: 13, w: []float64{0.25}, slack: 0.1},
		{parent: 4, cGen: 15, pGen: 14, w: []float64{0.5}, slack: 0.2},
		{parent: 1, cGen: 15, pGen: 11, w: []float64{0.75}, slack: 0.3},
	}
	regionOf5 := ic.cells[5].def2.reg

	// Cells 2 and 4 were tombstoned: 3 → 2, 5 → 3.
	ic.remap([]int32{0, 1, -1, 2, -1, 3}, 4)

	for id, from := range []int{0, 1, 3, 5} {
		e := &ic.cells[id]
		if e.key != fmt.Sprint("set", from) || e.gen != uint32(10+from) || e.def2.npts != 7 {
			t.Errorf("entry %d: key %q gen %d npts %d, want cell %d's", id, e.key, e.gen, e.def2.npts, from)
		}
	}
	if ic.cells[3].def2.reg != regionOf5 {
		t.Error("cell 5's region did not move with its entry")
	}
	if n := len(ic.cells[2].pairs); n != 0 {
		t.Errorf("cell 3 kept %d certificates against its tombstoned parent", n)
	}
	got := ic.cells[3].pairs
	if len(got) != 2 || got[0].parent != 2 || got[0].w[0] != 0.25 || got[1].parent != 1 || got[1].w[0] != 0.75 {
		t.Fatalf("cell 5's certificates after remap: %+v, want parents 2 and 1", got)
	}
	// The slot freed by the dropped certificate is reused; it must not
	// write through to a kept witness.
	ps := ic.cells[3].pair(0)
	ps.w = append(ps.w[:0], 42)
	if got[0].w[0] != 0.25 || got[1].w[0] != 0.75 {
		t.Errorf("a reused certificate slot aliases a kept witness: %+v", got)
	}
	if ps.cGen != 0 || ps.pGen != 0 || ps.failed {
		t.Errorf("a fresh certificate carries state: %+v", *ps)
	}

	for id := 4; id < 6; id++ {
		e := &ic.cells[id]
		if e.gen != 0 || e.key != "" || len(e.r) != 0 || len(e.pairs) != 0 ||
			e.def2.npts != 0 || len(e.def2.r) != 0 || len(e.bounded.r) != 0 || len(e.bounded.bound) != 0 {
			t.Errorf("released entry %d kept identity: %+v", id, *e)
		}
		if e.def2.reg == nil || e.bounded.reg == nil {
			t.Errorf("released entry %d lost its regions' storage", id)
		}
	}
}

// TestInsertCacheWithinBudget: on the d=3, τ=6, n=8000 index a kept cache
// is 88 MB — it must never be kept over its budget, and with
// the budget below its size it must not be kept at all.
func TestInsertCacheWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the d=3, τ=6, n=8000 index")
	}
	data, sched := ingestSchedule(3, 6, 8000, 21, 3, 4, 1)
	ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 6})
	insert := func(batch [][]float64) BatchStats {
		_, errs, stats := ix.InsertBatch(batch)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if stats.Accepted != 1 {
			t.Fatalf("batch accepted %d options, want 1 (%+v)", stats.Accepted, stats)
		}
		held, _ := ix.InsertCacheStats()
		if held != stats.CacheBytes || held > insertCacheBudget {
			t.Fatalf("index holds %d cache bytes, batch reported %d, budget %d", held, stats.CacheBytes, insertCacheBudget)
		}
		return stats
	}
	cold := insert(sched[0])
	if cold.CacheBytes < 1<<20 || cold.RegionsReused >= cold.RegionsRebuilt {
		t.Fatalf("cold insert: %+v, want a cache of megabytes built from nothing", cold)
	}
	warm := insert(sched[1])
	if warm.RegionsRebuilt >= warm.RegionsReused || warm.PairLPs >= warm.PairSkips {
		t.Fatalf("warm insert rebuilt more than it reused: %+v", warm)
	}
	forceInsertCacheBudget(t, warm.CacheBytes/2)
	if over := insert(sched[2]); over.CacheBytes != 0 || ix.icache != nil {
		t.Fatalf("a cache of %d bytes was kept over a budget of %d", warm.CacheBytes, insertCacheBudget)
	}
	if _, drops := ix.InsertCacheStats(); drops != 1 {
		t.Fatalf("%d drops counted, want 1", drops)
	}
}

// TestInsertVerdictsAreRecordScoped: the traversal's classification and
// feasibility verdicts name the arriving option, so they are of no use to
// any later record and must not pile up in the build's verdict cache.
func TestInsertVerdictsAreRecordScoped(t *testing.T) {
	data, sched := ingestSchedule(2, 6, 8000, 13, 20, 1, 1)
	ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 6})
	before := ix.VerdictEntries()
	if before == 0 {
		t.Fatal("the build left no verdicts")
	}
	applySchedule(t, ix, sched)
	if got := ix.VerdictEntries(); got != before {
		t.Fatalf("verdict cache went from %d to %d entries over 20 accepted inserts", before, got)
	}
	if _, _, held := ix.icache.verdicts.Stats(); held > ix.NumCells() {
		t.Fatalf("the insert path's verdict memo holds %d entries past its record", held)
	}
}

// TestExtensionDropsInsertCache: ExtendTau changes the depth the insert
// cache was built for, so it drops the cache.
func TestExtensionDropsInsertCache(t *testing.T) {
	ix := buildOrFail(t, hotels, Config{Algorithm: PBAPlus, Tau: 2})
	if id, err := ix.InsertOption([]float64{0.95, 0.9}); err != nil || id < 0 {
		t.Fatalf("insert: id %d, err %v", id, err)
	}
	if held, drops := ix.InsertCacheStats(); held == 0 || drops != 0 {
		t.Fatalf("after an accepted insert: %d bytes held, %d drops", held, drops)
	}
	if err := ix.ExtendTau(3); err != nil {
		t.Fatal(err)
	}
	if held, drops := ix.InsertCacheStats(); held != 0 || drops != 1 {
		t.Fatalf("after extension: %d bytes held, %d drops, want 0 and 1", held, drops)
	}
}
