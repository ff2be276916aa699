package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"tlevelindex/datagen"
	"tlevelindex/internal/skyline"
)

// ingestSchedule draws the insert schedule shape the load benchmark's
// ingest_mixed workload drives: batches batches of size options over the
// IND dataset (n options, d attributes, dataset seed 1), of which accepted
// per batch survive the τ-skyband prefilter — two or three pool options
// dominate them, so they land in the deeper levels — and the rest are
// draws that τ pool options dominate. seed draws the options and the
// places the accepted ones take in their batch; seed 1 is the dataset's own
// and would redraw its options.
func ingestSchedule(d, tau, n int, seed int64, batches, size, accepted int) (data [][]float64, sched [][][]float64) {
	data = datagen.Generate(datagen.IND, n, d, 1)
	var band [][]float64
	for _, i := range skyline.Skyband(data, tau) {
		band = append(band, data[i])
	}
	base := len(band)
	rng := rand.New(rand.NewSource(seed))
	dominators := func(over [][]float64, p []float64) int {
		c := 0
		for _, q := range over {
			if skyline.Dominates(q, p) {
				c++
			}
		}
		return c
	}
	draw := func(ok func(p []float64) bool) []float64 {
		for {
			p := make([]float64, d)
			for i := range p {
				p[i] = rng.Float64()
			}
			if ok(p) {
				return p
			}
		}
	}
	sched = make([][][]float64, batches)
	for b := range sched {
		batch := make([][]float64, size)
		for _, at := range rng.Perm(size)[:accepted] {
			batch[at] = draw(func(p []float64) bool {
				c := dominators(band, p)
				return c == 2 || c == 3
			})
		}
		for at := range batch {
			if batch[at] != nil {
				band = append(band, batch[at])
				continue
			}
			batch[at] = draw(func(p []float64) bool { return dominators(band[:base], p) >= tau })
		}
		sched[b] = batch
	}
	return data, sched
}

func writeSum(t testing.TB, ix *Index) string {
	t.Helper()
	h := sha256.New()
	if _, err := ix.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// applySchedule inserts every batch of sched and returns the ids assigned.
func applySchedule(t testing.TB, ix *Index, sched [][][]float64) []int32 {
	t.Helper()
	var all []int32
	for b, batch := range sched {
		ids, errs, _ := ix.InsertBatch(batch)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("batch %d item %d: %v", b, i, err)
			}
		}
		all = append(all, ids...)
	}
	return all
}

// scheduleGolden is the sha256 of WriteTo after the d=2, τ=6, n=8000,
// seed 7 schedule of nine batches of 16 with two accepted each, computed
// on the commit before the insert cache outlived its batch (PR 14's
// kernel): every later change to the insert path must reproduce it.
const scheduleGolden = "2db2f4f678734180df5137dc70eb837319133129eb64f52ffa88f439f24dd3c5"

func TestIngestScheduleGolden(t *testing.T) {
	data, sched := ingestSchedule(2, 6, 8000, 7, 9, 16, 2)
	ix, err := Build(data, Config{Algorithm: PBAPlus, Tau: 6})
	if err != nil {
		t.Fatal(err)
	}
	ids := applySchedule(t, ix, sched)
	accepted := 0
	for _, id := range ids {
		if id >= 0 {
			accepted++
		}
	}
	if accepted != 18 {
		t.Fatalf("schedule accepted %d options, want 18", accepted)
	}
	if err := ix.Validate(true); err != nil {
		t.Fatal(err)
	}
	if got := writeSum(t, ix); got != scheduleGolden {
		t.Fatalf("WriteTo sha256 after the schedule = %s (%d cells, %d LP calls), want %s",
			got, ix.NumCells(), ix.Stats.LPCalls, scheduleGolden)
	}
}

// TestWarmInsertAllocs pins the allocations of one accepted insert into an
// index whose insert cache is warm. What is left is the thaw/compact pair
// of a batch and, per classification LP, the halfspace geom.Classify is
// handed and the one it negates; the commit before the cache outlived its
// batch measured 13,923 here.
func TestWarmInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random; the pin runs in the non-race test pass")
	}
	const warm, runs = 8, 30
	data, sched := ingestSchedule(2, 6, 8000, 11, warm+runs+1, 1, 1)
	ix, err := Build(data, Config{Algorithm: PBAPlus, Tau: 6})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	insert := func() {
		ids, errs, _ := ix.InsertBatch(sched[next])
		if errs[0] != nil || ids[0] < 0 {
			t.Fatalf("insert %d: id %d, err %v", next, ids[0], errs[0])
		}
		next++
	}
	for next < warm {
		insert()
	}
	got := testing.AllocsPerRun(runs, insert)
	t.Logf("%.0f allocations per warm accepted insert", got)
	if got > 2500 {
		t.Errorf("a warm accepted insert allocates %.0f times, want <= 2500", got)
	}
}

// cellIDs maps every live cell's (R set, opt) to its id.
func cellIDs(ix *Index) map[string]int32 {
	m := make(map[string]int32)
	for i := range ix.Cells {
		if ix.Cells[i].Level >= 1 {
			m[ix.rKey(int32(i))] = int32(i)
		}
	}
	return m
}

// checkCacheFollowsCells holds the cache a batch left behind to the cells
// as compact renumbered them: every live cell's entry carries that cell's
// result set, and every certificate names a live cell of the level above
// whose result set is the child's prefix.
func checkCacheFollowsCells(t *testing.T, ix *Index) {
	t.Helper()
	ic := ix.icache
	for i := range ix.Cells {
		c := &ix.Cells[i]
		if c.Level < 1 {
			continue
		}
		r := ix.ResultSet(c.ID)
		e := &ic.cells[i]
		if e.key != setKey(r) {
			t.Fatalf("cell %d: cache entry keyed %x, result set %v", i, e.key, r)
		}
		for _, ps := range e.pairs {
			if p := &ix.Cells[ps.parent]; p.Level != c.Level-1 || ic.cells[ps.parent].key != setKey(r[:len(r)-1]) {
				t.Fatalf("cell %d: certificate against cell %d (level %d), not a candidate parent", i, ps.parent, p.Level)
			}
		}
	}
	for i := len(ix.Cells); i < len(ic.cells); i++ {
		if e := &ic.cells[i]; e.gen != 0 || e.key != "" || len(e.pairs) != 0 || len(e.r) != 0 {
			t.Fatalf("entry %d past the live cells kept gen %d, key %x, %d certificates", i, e.gen, e.key, len(e.pairs))
		}
	}
}

// forceInsertCacheBudget sets the budget for the length of the test.
func forceInsertCacheBudget(t *testing.T, b int64) {
	old := insertCacheBudget
	insertCacheBudget = b
	t.Cleanup(func() { insertCacheBudget = old })
}

// TestInsertCacheIdentity: however a seeded schedule is cut into batches —
// batch by batch on a cache that stays warm, with a serialize/load round
// trip (a cold cache) in the middle, with the budget at zero (no cache ever
// kept), as one batch, or one option at a time — the ids and the bytes of
// the index must come out the same. At least one batch boundary must
// renumber cells the cache holds entries for, or the remap is not tested.
func TestInsertCacheIdentity(t *testing.T) {
	for _, tc := range []struct {
		d, tau, n int
		seed      int64
	}{
		{d: 2, tau: 5, n: 3000, seed: 3},
		{d: 3, tau: 4, n: 600, seed: 5},
	} {
		data, sched := ingestSchedule(tc.d, tc.tau, tc.n, tc.seed, 6, 8, 2)
		var flat [][]float64
		for _, b := range sched {
			flat = append(flat, b...)
		}
		build := func() *Index {
			return buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: tc.tau})
		}

		warm := build()
		var wantIDs []int32
		renumbered, kept := 0, 0
		for _, batch := range sched {
			before := cellIDs(warm)
			wantIDs = append(wantIDs, applySchedule(t, warm, [][][]float64{batch})...)
			for k, id := range cellIDs(warm) {
				if old, ok := before[k]; ok && old != id {
					renumbered++
					break
				}
			}
			if warm.icache != nil {
				kept++
				checkCacheFollowsCells(t, warm)
			}
		}
		if renumbered == 0 {
			t.Fatalf("d=%d: no batch of the schedule renumbered a surviving cell; draw another seed", tc.d)
		}
		if kept != len(sched) {
			t.Fatalf("d=%d: the cache outlived %d of %d batches", tc.d, kept, len(sched))
		}
		if err := warm.Validate(true); err != nil {
			t.Fatalf("d=%d: %v", tc.d, err)
		}
		want := serializeOrFail(t, warm)

		check := func(name string, ix *Index, ids []int32) {
			t.Helper()
			if !slices.Equal(ids, wantIDs) {
				t.Fatalf("d=%d %s: ids %v, want %v", tc.d, name, ids, wantIDs)
			}
			if !bytes.Equal(serializeOrFail(t, ix), want) {
				t.Fatalf("d=%d %s: serialization differs from the warm batch-by-batch one", tc.d, name)
			}
		}

		reload := build()
		ids := applySchedule(t, reload, sched[:3])
		reload, err := Read(bytes.NewReader(serializeOrFail(t, reload)))
		if err != nil {
			t.Fatal(err)
		}
		if reload.icache != nil {
			t.Fatal("a loaded index holds an insert cache")
		}
		check("reloaded", reload, append(ids, applySchedule(t, reload, sched[3:])...))

		one := build()
		check("one batch", one, applySchedule(t, one, [][][]float64{flat}))

		seq := build()
		ids = nil
		for _, r := range flat {
			id, err := seq.InsertOption(r)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		check("sequential", seq, ids)

		t.Run("over budget", func(t *testing.T) {
			forceInsertCacheBudget(t, 0)
			cold := build()
			var ids []int32
			for _, batch := range sched {
				ids = append(ids, applySchedule(t, cold, [][][]float64{batch})...)
				if cold.icache != nil {
					t.Fatal("a cache over its budget was kept")
				}
			}
			check("over budget", cold, ids)
			if _, drops := cold.InsertCacheStats(); drops != uint64(len(sched)) {
				t.Fatalf("%d drops counted over %d batches", drops, len(sched))
			}
		})
	}
}

// BenchmarkIngestSchedule is one ingest_mixed round per op (make
// ingest-bench → BENCH_ingest.json): nine batches of 16 options with two
// accepted each, applied to a freshly built d=2, τ=6, n=8000 index, so
// every op pays the cold first batch before the warm eight.
func BenchmarkIngestSchedule(b *testing.B) {
	data, sched := ingestSchedule(2, 6, 8000, 7, 9, 16, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, err := Build(data, Config{Algorithm: PBAPlus, Tau: 6})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		applySchedule(b, ix, sched)
	}
}
