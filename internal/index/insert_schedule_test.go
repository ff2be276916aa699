package index

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"tlevelindex/baseline"
	"tlevelindex/datagen"
	"tlevelindex/internal/geom"
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

// TestInsertEqualsBuild: after every batch of an insert schedule, the
// index is byte for byte the PBA⁺ build over its pool (with the dataset ids
// and the input size carried over, which a build from the pool cannot
// know), and its top-k, kSPR and UTK answers equal those of an IBA build
// of the grown dataset and of the brute-force oracles. The d=2 shape is
// the load benchmark's ingest_mixed schedule.
func TestInsertEqualsBuild(t *testing.T) {
	for _, tc := range []struct {
		d, tau, n                 int
		seed                      int64
		batches, size, accepted   int
		draws, utkDraws, focalsPB int
	}{
		{d: 2, tau: 6, n: 8000, seed: 7, batches: 9, size: 16, accepted: 2, draws: 60, utkDraws: 6, focalsPB: 4},
		{d: 3, tau: 4, n: 600, seed: 5, batches: 3, size: 8, accepted: 2, draws: 60, utkDraws: 4, focalsPB: 4},
	} {
		data, sched := ingestSchedule(tc.d, tc.tau, tc.n, tc.seed, tc.batches, tc.size, tc.accepted)
		ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: tc.tau})
		grown := append([][]float64(nil), data...)
		rng := rand.New(rand.NewSource(tc.seed))
		for b, batch := range sched {
			ids := applySchedule(t, ix, [][][]float64{batch})
			var fresh []int
			for i, fid := range ids {
				if fid >= 0 && ix.OrigIDs[fid] < 0 {
					// The dataset id the root package hands out: the next
					// one past the grown dataset.
					ix.OrigIDs[fid] = len(grown)
					fresh = append(fresh, len(grown))
					grown = append(grown, batch[i])
				}
			}
			if len(fresh) != tc.accepted {
				t.Fatalf("d=%d batch %d: %d options accepted, want %d", tc.d, b, len(fresh), tc.accepted)
			}

			pool := buildOrFail(t, ix.Pts, Config{Algorithm: PBAPlus, Tau: tc.tau, SkipFilter: true})
			pool.OrigIDs = append([]int(nil), ix.OrigIDs...)
			pool.Stats.InputOptions = ix.Stats.InputOptions
			if !bytes.Equal(serializeOrFail(t, ix), serializeOrFail(t, pool)) {
				t.Fatalf("d=%d batch %d: the inserted index differs from the PBA⁺ build over its pool", tc.d, b)
			}

			iba := buildOrFail(t, grown, Config{Algorithm: IBA, Tau: tc.tau})
			brs := baseline.NewBRS(grown)
			for q := 0; q < tc.draws; q++ {
				x := randReduced(rng, tc.d-1)
				k := 1 + rng.Intn(tc.tau)
				got, _ := ix.TopK(x, k)
				alt, _ := iba.TopK(x, k)
				g, a := datasetIDs(ix, got), datasetIDs(iba, alt)
				if !slices.Equal(g, a) || len(g) != k {
					t.Fatalf("d=%d batch %d: top-%d at %v: inserted %v, IBA %v", tc.d, b, k, x, g, a)
				}
				for i, id := range g {
					if rank := baseline.BruteRank(grown, id, x); rank != i+1 {
						t.Fatalf("d=%d batch %d: top-%d at %v: option %d answered at rank %d, brute force ranks it %d", tc.d, b, k, x, id, i+1, rank)
					}
				}
			}
			for q := 0; q < tc.utkDraws; q++ {
				x := randReduced(rng, tc.d-1)
				lo, hi := make([]float64, len(x)), make([]float64, len(x))
				for i, v := range x {
					lo[i], hi[i] = max(v-0.03, 0), min(v+0.03, 1)
				}
				box := geom.NewBox(lo, hi)
				k := 1 + rng.Intn(tc.tau)
				got := mapOrig(ix, ix.UTK(k, box).Options) // ascending
				alt := mapOrig(iba, iba.UTK(k, box).Options)
				want, _ := baseline.JAA(brs, box, k)
				if !slices.Equal(got, want.Options) || !slices.Equal(alt, want.Options) {
					t.Fatalf("d=%d batch %d: UTK k=%d over %v: inserted %v, IBA %v, JAA %v", tc.d, b, k, box, got, alt, want.Options)
				}
			}
			focals := fresh
			for range tc.focalsPB {
				focals = append(focals, ix.OrigIDs[rng.Intn(len(ix.OrigIDs))])
			}
			for _, focal := range focals {
				checkKSPR(t, ix, iba, grown, focal, tc.tau, rng)
			}
		}
		if err := ix.Validate(true); err != nil {
			t.Fatalf("d=%d: %v", tc.d, err)
		}
	}
}

// checkKSPR compares the kSPR answers of the dataset option focal at k = τ
// on the inserted index ix and on the IBA build iba: the same cells, named
// by level and result set in dataset ids. Then it samples weight vectors:
// wherever the focal option ranks ℓ ≤ τ by brute force, the answer holds the
// level-ℓ cell whose result set is the brute-force top-ℓ there.
func checkKSPR(t *testing.T, ix, iba *Index, grown [][]float64, focal, tau int, rng *rand.Rand) {
	t.Helper()
	cells := func(x *Index) map[string]bool {
		set := make(map[string]bool)
		fid := slices.Index(x.OrigIDs, focal)
		if fid < 0 {
			return set
		}
		for _, id := range x.KSPR(tau, int32(fid)).Cells {
			set[datasetSetKey(mapOrig(x, x.ResultSet(id)))] = true
		}
		return set
	}
	got, alt := cells(ix), cells(iba)
	if len(got) != len(alt) {
		t.Fatalf("kSPR of option %d: inserted index %d cells, IBA %d", focal, len(got), len(alt))
	}
	for k := range got {
		if !alt[k] {
			t.Fatalf("kSPR of option %d: cell %x of the inserted index is not IBA's", focal, k)
		}
	}
	for range 40 {
		x := randReduced(rng, len(grown[0])-1)
		// The brute-force top-rank set: the options that outscore focal,
		// and focal itself.
		top := []int{focal}
		for i, p := range grown {
			if geom.Score(p, x) > geom.Score(grown[focal], x) {
				top = append(top, i)
			}
		}
		if rank := len(top); rank <= tau && !got[datasetSetKey(top)] {
			t.Fatalf("kSPR of option %d at %v: it ranks %d there, and the answer lacks that cell", focal, x, rank)
		}
	}
}

// datasetIDs maps filtered ids to dataset ids, keeping their order.
func datasetIDs(ix *Index, opts []int32) []int {
	out := make([]int, len(opts))
	for i, o := range opts {
		out[i] = ix.OrigIDs[o]
	}
	return out
}

// datasetSetKey names a result set of dataset ids as a set.
func datasetSetKey(r []int) string {
	s := make([]int32, len(r))
	for i, v := range r {
		s[i] = int32(v)
	}
	return string(appendSetKey(nil, s))
}

// TestInsertCacheIdentity: however a seeded schedule is cut into batches —
// batch by batch, with a serialize/load round trip in the middle, as one
// batch, or one option at a time — the ids and the bytes of the index must
// come out the same.
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
		for _, batch := range sched {
			wantIDs = append(wantIDs, applySchedule(t, warm, [][][]float64{batch})...)
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
				t.Fatalf("d=%d %s: serialization differs from the batch-by-batch one", tc.d, name)
			}
		}

		reload := build()
		ids := applySchedule(t, reload, sched[:3])
		reload, err := Read(bytes.NewReader(serializeOrFail(t, reload)))
		if err != nil {
			t.Fatal(err)
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
	}
}

// TestWarmInsertAllocs pins the allocations of one accepted insert into the
// d=2, τ=6, n=8000 index after eight others: a PBA⁺ rebuild over the
// ~50-option pool, which measured 5,013 here. The pin leaves the 2×
// headroom the IBA update path had (1,250 measured, 2,500 pinned).
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
	t.Logf("%.0f allocations per accepted insert", got)
	if got > 10000 {
		t.Errorf("an accepted insert allocates %.0f times, want <= 10000", got)
	}
}

// BenchmarkIngestSchedule is one ingest_mixed round per op (make
// ingest-bench → BENCH_ingest.json): nine batches of 16 options with two
// accepted each, applied to a freshly built d=2, τ=6, n=8000 index, so
// every op pays nine rebuilds of the index over its growing pool.
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
