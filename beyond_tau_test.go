package tlevelindex

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tlevelindex/baseline"
	"tlevelindex/datagen"
)

// writeIndex returns the index's serialized bytes, the strongest identity
// the format offers.
func writeIndex(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueriesBeyondTauRefused: every query family, plain and *Context,
// refuses k = τ+1 with ErrBeyondTau whether or not the index holds its
// dataset, and the refusals leave the index byte-identical. After
// ExtendTau(τ+1) the same calls answer, and TopK, the UTK and ORU options
// and MaxRank equal those of an index built at τ+1 in the first place.
func TestQueriesBeyondTauRefused(t *testing.T) {
	data := datagen.Generate(datagen.IND, 300, 2, 5) // d = 2 for MonoRTopK
	const tau, k = 2, 3
	ctx := context.Background()
	w := []float64{0.4, 0.6}
	ws := [][]float64{w, {0.7, 0.3}}
	lo, hi := []float64{0.3}, []float64{0.5}
	users := [][]float64{{0.2, 0.8}, {0.5, 0.5}}
	const focal = 0
	calls := []struct {
		name string
		run  func(ix *Index) error
	}{
		{"TopK", func(ix *Index) error { _, err := ix.TopK(w, k); return err }},
		{"TopKContext", func(ix *Index) error { _, err := ix.TopKContext(ctx, w, k); return err }},
		{"TopKBatch", func(ix *Index) error { _, err := ix.TopKBatch(ws, k); return err }},
		{"TopKBatchContext", func(ix *Index) error { _, err := ix.TopKBatchContext(ctx, ws, k); return err }},
		{"KSPR", func(ix *Index) error { _, err := ix.KSPR(k, focal); return err }},
		{"KSPRContext", func(ix *Index) error { _, err := ix.KSPRContext(ctx, k, focal); return err }},
		{"KSPRBatch", func(ix *Index) error { _, err := ix.KSPRBatch(k, []int{focal, 1}); return err }},
		{"KSPRBatchContext", func(ix *Index) error { _, err := ix.KSPRBatchContext(ctx, k, []int{focal, 1}); return err }},
		{"UTK", func(ix *Index) error { _, err := ix.UTK(k, lo, hi); return err }},
		{"UTKContext", func(ix *Index) error { _, err := ix.UTKContext(ctx, k, lo, hi); return err }},
		{"ORU", func(ix *Index) error { _, err := ix.ORU(k, w, 4); return err }},
		{"ORUContext", func(ix *Index) error { _, err := ix.ORUContext(ctx, k, w, 4); return err }},
		{"WhyNot", func(ix *Index) error { _, err := ix.WhyNot(focal, w, k); return err }},
		{"WhyNotContext", func(ix *Index) error { _, err := ix.WhyNotContext(ctx, focal, w, k); return err }},
		{"MonoRTopK", func(ix *Index) error { _, err := ix.MonoRTopK(k, focal); return err }},
		{"MonoRTopKContext", func(ix *Index) error { _, err := ix.MonoRTopKContext(ctx, k, focal); return err }},
		{"MarketShare", func(ix *Index) error { _, err := ix.MarketShare(focal, k); return err }},
		{"MarketShareContext", func(ix *Index) error { _, err := ix.MarketShareContext(ctx, focal, k); return err }},
		{"ReverseTopK", func(ix *Index) error { _, err := ix.ReverseTopK(k, focal, users); return err }},
		{"ReverseTopKContext", func(ix *Index) error { _, err := ix.ReverseTopKContext(ctx, k, focal, users); return err }},
	}
	for _, full := range []bool{true, false} {
		var opts []Option
		if !full {
			opts = append(opts, WithoutFullData())
		}
		ix, err := Build(data, tau, opts...)
		if err != nil {
			t.Fatal(err)
		}
		before := writeIndex(t, ix)
		for _, c := range calls {
			if err := c.run(ix); !errors.Is(err, ErrBeyondTau) {
				t.Errorf("full data %v: %s at k = τ+1: err %v, want ErrBeyondTau", full, c.name, err)
			}
		}
		if ix.Tau() != tau || !bytes.Equal(before, writeIndex(t, ix)) {
			t.Fatalf("full data %v: refused queries changed the index", full)
		}
	}

	ix, err := Build(data, tau)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.ExtendTau(k); err != nil {
		t.Fatal(err)
	}
	for _, c := range calls {
		if err := c.run(ix); err != nil {
			t.Errorf("%s after ExtendTau: %v", c.name, err)
		}
	}
	deep, err := Build(data, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 40; i++ {
		q := randSimplexW(rng, 2)
		got, err := ix.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := deep.TopK(q, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%v) after ExtendTau = %v, built at τ+1 = %v", q, got, want)
		}
		got2, _ := ix.ORU(k, q, 5)
		want2, _ := deep.ORU(k, q, 5)
		if !reflect.DeepEqual(got2.Options, want2.Options) {
			t.Fatalf("ORU(%v) options after ExtendTau = %v, built at τ+1 = %v", q, got2.Options, want2.Options)
		}
		c := rng.Float64() * 0.9
		got3, _ := ix.UTK(k, []float64{c}, []float64{c + 0.1})
		want3, _ := deep.UTK(k, []float64{c}, []float64{c + 0.1})
		if !reflect.DeepEqual(got3.Options, want3.Options) {
			t.Fatalf("UTK([%v, %v]) options after ExtendTau = %v, built at τ+1 = %v", c, c+0.1, got3.Options, want3.Options)
		}
	}
	for o := range data {
		got, _ := ix.MaxRank(o)
		want, _ := deep.MaxRank(o)
		if got != want {
			t.Fatalf("MaxRank(%d) after ExtendTau = %d, built at τ+1 = %d", o, got, want)
		}
	}
}

// TestExtendTauNeedsFullData: an index without its dataset — built
// WithoutFullData, or loaded by ReadIndex or OpenIndexFile — cannot recruit
// the options that rank below τ everywhere, so ExtendTau refuses with
// ErrNeedsFullData and leaves the index byte-identical. With the dataset,
// ExtendTau's top-k answers are the brute force's.
func TestExtendTauNeedsFullData(t *testing.T) {
	data := datagen.Generate(datagen.IND, 300, 3, 1)
	const tau, k = 2, 5
	ix, err := Build(data, tau)
	if err != nil {
		t.Fatal(err)
	}
	blob := writeIndex(t, ix)
	path := filepath.Join(t.TempDir(), "index.tlx")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	dropped, err := Build(data, tau, WithoutFullData())
	if err != nil {
		t.Fatal(err)
	}
	read, err := ReadIndex(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for name, nf := range map[string]*Index{"WithoutFullData": dropped, "ReadIndex": read, "OpenIndexFile": mapped} {
		if nf.HasFullData() {
			t.Fatalf("%s: index claims the full dataset", name)
		}
		before := writeIndex(t, nf)
		if err := nf.ExtendTau(k); !errors.Is(err, ErrNeedsFullData) {
			t.Fatalf("%s: ExtendTau err %v, want ErrNeedsFullData", name, err)
		}
		if nf.Tau() != tau || !bytes.Equal(before, writeIndex(t, nf)) {
			t.Fatalf("%s: a refused ExtendTau changed the index", name)
		}
	}

	if err := ix.ExtendTau(k); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		w := randSimplexW(rng, 3)
		got, err := ix.TopK(w, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := baseline.BruteTopK(data, w[:2], k); !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d: TopK(%v, %d) = %v, brute force %v", i, w, k, got, want)
		}
	}
}
