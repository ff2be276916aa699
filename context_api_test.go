package tlevelindex

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"tlevelindex/datagen"
	"tlevelindex/internal/geom"
)

// TestMarketShareContextParity: the context-aware variant must return the
// exact MarketShare value (same deterministic Monte-Carlo seed) plus the
// traversal stats the plain call hides.
func TestMarketShareContextParity(t *testing.T) {
	data := datagen.Generate(datagen.IND, 40, 3, 11)
	ix, err := Build(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	for focal := 0; focal < 6; focal++ {
		want, err := ix.MarketShare(focal, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.MarketShareContext(context.Background(), focal, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Share != want {
			t.Errorf("focal %d: ctx share %v != plain share %v", focal, got.Share, want)
		}
		if want > 0 && got.Stats.VisitedCells == 0 {
			t.Errorf("focal %d: stats missing from context variant", focal)
		}
		if math.IsNaN(got.Share) || got.Share < 0 || got.Share > 1 {
			t.Errorf("focal %d: share %v out of [0,1]", focal, got.Share)
		}
	}
}

func TestReverseTopKContextParity(t *testing.T) {
	data := datagen.Generate(datagen.IND, 40, 3, 12)
	ix, err := Build(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	users := [][]float64{
		{0.2, 0.3, 0.5},
		{0.6, 0.2, 0.2},
		{0.1, 0.1, 0.8},
		{1.0 / 3, 1.0 / 3, 1.0 / 3},
	}
	for focal := 0; focal < 6; focal++ {
		want, err := ix.ReverseTopK(2, focal, users)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.ReverseTopKContext(context.Background(), 2, focal, users)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Users, want) {
			t.Errorf("focal %d: ctx users %v != plain users %v", focal, got.Users, want)
		}
	}
	// Bad user weights stay a validation error, not a partial result.
	if _, err := ix.ReverseTopKContext(context.Background(), 2, 0, [][]float64{{0.5, 0.5}}); !errors.Is(err, ErrInvalidWeights) {
		t.Errorf("short user weights: %v", err)
	}
}

func TestMonoRTopKContextParity(t *testing.T) {
	data := datagen.Generate(datagen.IND, 30, 2, 13)
	ix, err := Build(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	for focal := 0; focal < 6; focal++ {
		want, err := ix.MonoRTopK(2, focal)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.MonoRTopKContext(context.Background(), 2, focal)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Intervals) != len(want) {
			t.Fatalf("focal %d: ctx intervals %v != plain %v", focal, got.Intervals, want)
		}
		for i := range want {
			if got.Intervals[i] != want[i] {
				t.Errorf("focal %d interval %d: %v != %v", focal, i, got.Intervals[i], want[i])
			}
		}
	}
	// Dimension guard matches the plain variant.
	d3 := datagen.Generate(datagen.IND, 20, 3, 14)
	ix3, err := Build(d3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix3.MonoRTopKContext(context.Background(), 2, 0); err == nil {
		t.Error("MonoRTopKContext accepted a 3-attribute index")
	}
}

// TestNewContextVariantsCancellation: pre-canceled contexts abort the three
// new variants with context.Canceled and a non-nil partial result carrying
// whatever stats accrued.
func TestNewContextVariantsCancellation(t *testing.T) {
	data := datagen.Generate(datagen.IND, 40, 3, 15)
	ix, err := Build(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Pick focals that are actually indexed so the traversal runs (a focal
	// outside the skyband returns an empty result before any ctx poll).
	focal := -1
	for f := 0; f < len(data); f++ {
		if r, err := ix.KSPR(3, f); err == nil && len(r.Regions) > 0 {
			focal = f
			break
		}
	}
	if focal < 0 {
		t.Fatal("no indexed focal found")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms, err := ix.MarketShareContext(ctx, focal, 3)
	if err != context.Canceled {
		t.Errorf("MarketShareContext: %v", err)
	}
	if ms == nil {
		t.Error("MarketShareContext: nil partial result on cancellation")
	}
	rt, err := ix.ReverseTopKContext(ctx, 3, focal, [][]float64{{0.2, 0.3, 0.5}})
	if err != context.Canceled {
		t.Errorf("ReverseTopKContext: %v", err)
	}
	if rt == nil {
		t.Error("ReverseTopKContext: nil partial result on cancellation")
	}
	d2 := datagen.Generate(datagen.IND, 30, 2, 16)
	ix2, err := Build(d2, 3)
	if err != nil {
		t.Fatal(err)
	}
	focal2 := -1
	for f := 0; f < len(d2); f++ {
		if r, err := ix2.KSPR(2, f); err == nil && len(r.Regions) > 0 {
			focal2 = f
			break
		}
	}
	if focal2 < 0 {
		t.Fatal("no indexed 2-d focal found")
	}
	mr, err := ix2.MonoRTopKContext(ctx, 2, focal2)
	if err != context.Canceled {
		t.Errorf("MonoRTopKContext: %v", err)
	}
	if mr == nil {
		t.Error("MonoRTopKContext: nil partial result on cancellation")
	}
}

// TestNewContextVariantsSentinels pins validation and depth errors.
func TestNewContextVariantsSentinels(t *testing.T) {
	data := datagen.Generate(datagen.IND, 30, 3, 17)
	nf, err := Build(data, 2, WithoutFullData())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := nf.MarketShareContext(ctx, 0, 5); !errors.Is(err, ErrBeyondTau) {
		t.Errorf("deep MarketShareContext: %v", err)
	}
	if _, err := nf.ReverseTopKContext(ctx, 5, 0, nil); !errors.Is(err, ErrBeyondTau) {
		t.Errorf("deep ReverseTopKContext: %v", err)
	}
	if _, err := nf.WhyNotContext(ctx, -1, []float64{0.2, 0.3, 0.5}, 2); err == nil {
		t.Error("WhyNotContext accepted a negative option")
	}
	if _, err := nf.MarketShareContext(ctx, 0, 0); err == nil {
		t.Error("MarketShareContext accepted k = 0")
	}
	if _, err := nf.MarketShareContext(ctx, -1, 2); err == nil {
		t.Error("MarketShareContext accepted a negative focal")
	}
	if _, err := nf.ReverseTopKContext(ctx, 2, -1, nil); err == nil {
		t.Error("ReverseTopKContext accepted a negative focal")
	}
}

// TestPlainMatchesContext pins every plain query method to its Context
// twin, both within τ and beyond the built τ after ExtendTau. The beyond-τ
// focal (43) lies outside the τ-skyband but inside the k-skyband, so an
// ExtendTau that forgets to refresh the option pool (or the id map) answers
// "ranks nowhere" for it.
func TestPlainMatchesContext(t *testing.T) {
	data := datagen.Generate(datagen.IND, 400, 2, 7)
	const tau = 2
	ctx := context.Background()
	w := []float64{0.4, 0.6}
	users := [][]float64{{0.2, 0.8}, {0.5, 0.5}, {0.7, 0.3}}
	families := []struct {
		name  string
		plain func(ix *Index, k, focal int) (any, error)
		twin  func(ix *Index, k, focal int) (any, error)
	}{
		{"TopK",
			func(ix *Index, k, _ int) (any, error) { return ix.TopK(w, k) },
			func(ix *Index, k, _ int) (any, error) {
				r, err := ix.TopKContext(ctx, w, k)
				return r.Options, err
			}},
		{"KSPR",
			func(ix *Index, k, f int) (any, error) { return ix.KSPR(k, f) },
			func(ix *Index, k, f int) (any, error) { return ix.KSPRContext(ctx, k, f) }},
		{"UTK",
			func(ix *Index, k, _ int) (any, error) { return ix.UTK(k, []float64{0.3}, []float64{0.5}) },
			func(ix *Index, k, _ int) (any, error) { return ix.UTKContext(ctx, k, []float64{0.3}, []float64{0.5}) }},
		{"ORU",
			func(ix *Index, k, _ int) (any, error) { return ix.ORU(k, w, k+2) },
			func(ix *Index, k, _ int) (any, error) { return ix.ORUContext(ctx, k, w, k+2) }},
		{"MaxRank",
			func(ix *Index, _, f int) (any, error) { return ix.MaxRank(f) },
			func(ix *Index, _, f int) (any, error) {
				r, err := ix.MaxRankContext(ctx, f)
				return r.Rank, err
			}},
		{"WhyNot",
			func(ix *Index, k, f int) (any, error) { return ix.WhyNot(f, w, k) },
			func(ix *Index, k, f int) (any, error) { return ix.WhyNotContext(ctx, f, w, k) }},
		{"MonoRTopK",
			func(ix *Index, k, f int) (any, error) { return ix.MonoRTopK(k, f) },
			func(ix *Index, k, f int) (any, error) {
				r, err := ix.MonoRTopKContext(ctx, k, f)
				return r.Intervals, err
			}},
		{"MarketShare",
			func(ix *Index, k, f int) (any, error) { return ix.MarketShare(f, k) },
			func(ix *Index, k, f int) (any, error) {
				r, err := ix.MarketShareContext(ctx, f, k)
				return r.Share, err
			}},
		{"ReverseTopK",
			func(ix *Index, k, f int) (any, error) { return ix.ReverseTopK(k, f, users) },
			func(ix *Index, k, f int) (any, error) {
				r, err := ix.ReverseTopKContext(ctx, k, f, users)
				return r.Users, err
			}},
	}
	probe, err := Build(data, tau)
	if err != nil {
		t.Fatal(err)
	}
	inPool := probe.LevelOptions(tau)[0]
	for _, c := range []struct{ k, focal int }{{tau, inPool}, {5, 43}} {
		ix, err := Build(data, tau)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.ExtendTau(c.k); err != nil {
			t.Fatal(err)
		}
		for _, fam := range families {
			var got [2]any
			for side, run := range []func(*Index, int, int) (any, error){fam.plain, fam.twin} {
				if got[side], err = run(ix, c.k, c.focal); err != nil {
					t.Fatalf("%s k=%d side %d: %v", fam.name, c.k, side, err)
				}
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("%s(k=%d, focal=%d): plain = %+v, Context = %+v", fam.name, c.k, c.focal, got[0], got[1])
			}
		}
	}
	// The beyond-τ focal must actually be answerable, or the comparison
	// above proves nothing.
	ix, _ := Build(data, tau)
	if err := ix.ExtendTau(5); err != nil {
		t.Fatal(err)
	}
	if share, _ := ix.MarketShare(43, 5); share == 0 {
		t.Error("MarketShare(43, 5) = 0: focal 43 should rank top-5 somewhere")
	}
	if _, err := ix.MonoRTopK(5, -1); err == nil {
		t.Error("MonoRTopK accepted a negative focal")
	}
	// The batch twins resolve the focal the same way.
	want, _ := ix.KSPR(5, 43)
	for name, batch := range map[string]func(*Index) ([]*KSPRResult, error){
		"KSPRBatch":        func(ix *Index) ([]*KSPRResult, error) { return ix.KSPRBatch(5, []int{43}) },
		"KSPRBatchContext": func(ix *Index) ([]*KSPRResult, error) { return ix.KSPRBatchContext(ctx, 5, []int{43}) },
	} {
		if got, err := batch(ix); err != nil || !reflect.DeepEqual(got[0].Regions, want.Regions) {
			t.Errorf("%s(5, [43]): %d regions (err %v), KSPR has %d", name, len(got[0].Regions), err, len(want.Regions))
		}
	}
}

// TestRegionExportFromRows: reported regions are copied out of the cells'
// bare rows — the values a full geom.Region of the cell holds — at three
// allocations per UTK partition (its halfspace slice, one coefficient slab
// every A is a full-capped window of, its TopK) and three per answer (the
// result, Options, Partitions) beyond what the traversal itself allocates.
func TestRegionExportFromRows(t *testing.T) {
	ix, err := Build(datagen.Generate(datagen.IND, 600, 3, 27), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const k = 4
	lo, hi := []float64{0.2, 0.25}, []float64{0.4, 0.45}
	res, err := ix.UTKContext(ctx, k, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	inner, _ := ix.cur.Load().inner.UTKCtx(ctx, k, geom.NewBox(lo, hi))
	parts := len(res.Partitions)
	if parts < 5 || parts != len(inner.Partitions) {
		t.Fatalf("%d partitions (traversal: %d), want at least 5", parts, len(inner.Partitions))
	}
	check := func(what string, got Region, cell int32) {
		t.Helper()
		want := ix.cur.Load().inner.Region(cell).HS
		if len(got.Halfspaces) != len(want) {
			t.Fatalf("%s: %d halfspaces, the cell's region has %d", what, len(got.Halfspaces), len(want))
		}
		for i, h := range got.Halfspaces {
			if h.B != want[i].B || !reflect.DeepEqual(h.A, want[i].A) {
				t.Fatalf("%s: halfspace %d = %v, the cell's region has %v", what, i, h, want[i])
			}
			if cap(h.A) != len(h.A) {
				t.Fatalf("%s: halfspace %d has spare capacity: an append would write into its neighbour", what, i)
			}
		}
	}
	for i, p := range res.Partitions {
		check("UTK partition", p.Region, inner.Partitions[i].Cell)
	}
	for focal := 0; focal < 20; focal++ {
		pub, err := ix.KSPRContext(ctx, k, focal)
		if err != nil {
			t.Fatal(err)
		}
		fid := ix.cur.Load().filteredID(focal)
		if fid < 0 {
			continue
		}
		cells := ix.cur.Load().inner.KSPR(k, fid).Cells
		batch, err := ix.KSPRBatchContext(ctx, k, []int{focal})
		if err != nil || len(pub.Regions) != len(cells) || len(batch[0].Regions) != len(cells) {
			t.Fatalf("focal %d: %d and %d regions for %d cells (%v)", focal, len(pub.Regions), len(batch[0].Regions), len(cells), err)
		}
		for i, id := range cells {
			check("kSPR region", pub.Regions[i], id)
			check("kSPR batch region", batch[0].Regions[i], id)
		}
	}
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; allocation counts are meaningless")
	}
	box := geom.NewBox(lo, hi)
	traversal := testing.AllocsPerRun(50, func() { ix.cur.Load().inner.UTKCtx(ctx, k, box) })
	total := testing.AllocsPerRun(50, func() { ix.UTKContext(ctx, k, lo, hi) })
	// geom.NewBox copies lo and hi: two more that are the public call's own.
	if export := total - traversal - 2; export > float64(3*parts+3) {
		t.Fatalf("export allocates %.0f for %d partitions (traversal %.0f of %.0f), want at most 3 per partition and 3 per answer",
			export, parts, traversal, total)
	}
}
