package index

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"tlevelindex/internal/geom"
)

// TestKSPRBeyondTau: kSPR with k > τ is refused until ExtendTau, after
// which it must agree with an index built deep enough in the first place.
func TestKSPRBeyondTau(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 4; trial++ {
		n := 15 + rng.Intn(15)
		d := 2 + rng.Intn(2)
		data := randData(rng, n, d)
		small := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 2})
		big := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 4})
		if _, err := small.KSPRCtx(context.Background(), 4, 0); err != ErrBeyondTau {
			t.Fatalf("trial %d: kSPR at k > τ: err %v, want ErrBeyondTau", trial, err)
		}
		if err := small.ExtendTau(4); err != nil {
			t.Fatal(err)
		}
		for fi := 0; fi < len(big.Pts); fi += 2 {
			orig := big.OrigIDs[fi]
			// Find the same option in the small (extended) index.
			var sfid int32 = -1
			for sf, o := range small.OrigIDs {
				if o == orig {
					sfid = int32(sf)
				}
			}
			if sfid < 0 {
				t.Fatalf("option %d missing after extension", orig)
			}
			a := small.KSPR(4, sfid)
			b := big.KSPR(4, int32(fi))
			var as, bs []string
			for _, id := range a.Cells {
				as = append(as, cellSignature(small, id))
			}
			for _, id := range b.Cells {
				bs = append(bs, cellSignature(big, id))
			}
			sort.Strings(as)
			sort.Strings(bs)
			if !reflect.DeepEqual(as, bs) {
				t.Fatalf("trial %d focal %d: kSPR beyond tau differs:\n ext %v\n big %v", trial, orig, as, bs)
			}
		}
	}
}

// TestUTKAndORUBeyondTau: region and expansion queries past τ are refused
// until ExtendTau, after which they agree with a natively deep index.
func TestUTKAndORUBeyondTau(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 4; trial++ {
		n := 15 + rng.Intn(15)
		d := 2 + rng.Intn(2)
		data := randData(rng, n, d)
		small := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 2})
		big := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 4})
		dim := d - 1
		c := randReduced(rng, dim)
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for j := range lo {
			lo[j] = c[j] * 0.8
			hi[j] = c[j]*0.8 + 0.1
		}
		box := geom.NewBox(lo, hi)
		if _, err := small.UTKCtx(context.Background(), 4, box); err != ErrBeyondTau {
			t.Fatalf("trial %d: UTK at k > τ: err %v, want ErrBeyondTau", trial, err)
		}
		if _, err := small.ORUCtx(context.Background(), 4, randReduced(rng, dim), 6); err != ErrBeyondTau {
			t.Fatalf("trial %d: ORU at k > τ: err %v, want ErrBeyondTau", trial, err)
		}
		if err := small.ExtendTau(4); err != nil {
			t.Fatal(err)
		}
		a := small.UTK(4, box)
		b := big.UTK(4, box)
		ao := mapOrig(small, a.Options)
		bo := mapOrig(big, b.Options)
		if !reflect.DeepEqual(ao, bo) {
			t.Fatalf("trial %d: UTK beyond tau differs: %v vs %v", trial, ao, bo)
		}
		x := randReduced(rng, dim)
		ar := small.ORU(4, x, 6)
		br := big.ORU(4, x, 6)
		aro := mapOrig(small, ar.Options)
		bro := mapOrig(big, br.Options)
		sort.Ints(aro)
		sort.Ints(bro)
		if ar.Rho-br.Rho > 1e-9 || br.Rho-ar.Rho > 1e-9 {
			t.Fatalf("trial %d: ORU rho differs: %v vs %v (%v vs %v)", trial, ar.Rho, br.Rho, aro, bro)
		}
	}
}

func mapOrig(ix *Index, opts []int32) []int {
	out := make([]int, len(opts))
	for i, o := range opts {
		out[i] = ix.OrigIDs[o]
	}
	sort.Ints(out)
	return out
}

// TestQuickIndexInvariants: random datasets must always produce a
// structurally valid index with nonempty cell regions.
func TestQuickIndexInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(25)
		d := 2 + r.Intn(2)
		tau := 1 + r.Intn(3)
		data := randData(r, n, d)
		ix, err := Build(data, Config{Algorithm: PBAPlus, Tau: tau})
		if err != nil {
			return false
		}
		return ix.Validate(true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestBuildersOnSkewedDistributions: equivalence holds on correlated and
// anti-correlated data too, not just uniform.
func TestBuildersOnSkewedDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	gen := func(anti bool, n int) [][]float64 {
		data := make([][]float64, n)
		for i := range data {
			base := 0.5 + 0.1*rng.NormFloat64()
			if anti {
				j := rng.Float64() - 0.5
				data[i] = []float64{clamp(base + j), clamp(base - j)}
			} else {
				data[i] = []float64{clamp(base + 0.05*rng.NormFloat64()), clamp(base + 0.05*rng.NormFloat64())}
			}
		}
		return data
	}
	for _, anti := range []bool{false, true} {
		data := gen(anti, 25)
		ref := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 3})
		for _, alg := range []Algorithm{PBA, IBA, BSL} {
			ix := buildOrFail(t, data, Config{Algorithm: alg, Tau: 3})
			for l := 1; l <= ref.Tau; l++ {
				if got, want := levelSignatures(ix, l), levelSignatures(ref, l); !equalStrings(got, want) {
					t.Fatalf("anti=%v %v level %d: %v vs %v", anti, alg, l, got, want)
				}
			}
		}
	}
}

func clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// TestNearDuplicateOptions: options that differ by tiny amounts stress the
// LP tolerances; the index must stay structurally valid and answer point
// queries correctly.
func TestNearDuplicateOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	base := randData(rng, 10, 3)
	var data [][]float64
	for _, p := range base {
		data = append(data, p)
		q := append([]float64(nil), p...)
		q[0] += 1e-7
		data = append(data, q)
	}
	ix := buildOrFail(t, data, Config{Algorithm: PBAPlus, Tau: 3})
	for probe := 0; probe < 20; probe++ {
		x := randReduced(rng, 2)
		got, _ := ix.TopK(x, 3)
		want := bruteTopK(data, x, 3)
		for i := range got {
			gs := geom.Score(ix.Pts[got[i]], x)
			ws := geom.Score(data[want[i]], x)
			if gs < ws-1e-6 {
				t.Fatalf("near-duplicate data: rank %d score %.9f vs brute %.9f", i+1, gs, ws)
			}
		}
	}
}

// TestExtensionWithoutFullData: an index built without the dataset
// reference cannot recruit the options below τ, so ExtendTau refuses with
// ErrNeedsFullData and leaves the index byte-identical; a query past τ is
// refused with ErrBeyondTau, never answered over the filtered pool.
func TestExtensionWithoutFullData(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	data := randData(rng, 20, 3)
	ix, err := Build(data, Config{Algorithm: PBAPlus, Tau: 2, DropFullData: true})
	if err != nil {
		t.Fatal(err)
	}
	before := serializeOrFail(t, ix)
	if err := ix.ExtendTau(4); err != ErrNeedsFullData {
		t.Fatalf("ExtendTau without the dataset: err %v, want ErrNeedsFullData", err)
	}
	if ix.Tau != 2 || !bytes.Equal(before, serializeOrFail(t, ix)) {
		t.Fatal("a refused ExtendTau changed the index")
	}
	if _, _, _, err := ix.TopKCtx(context.Background(), randReduced(rng, 2), 4); err != ErrBeyondTau {
		t.Fatalf("TopK past τ: err %v, want ErrBeyondTau", err)
	}
}

// TestMergedCellMultiParentRegions: a merged cell's region must cover the
// union of what its per-parent constituents covered (sampled containment
// through every parent).
func TestMergedCellMultiParentRegions(t *testing.T) {
	ix := buildOrFail(t, hotels, Config{Algorithm: PBAPlus, Tau: 3})
	for l := 1; l <= 3; l++ {
		for _, id := range ix.Levels[l] {
			parents := ix.parentsOf(id)
			if len(parents) < 2 {
				continue
			}
			reg := ix.Region(id)
			for _, p := range parents {
				inter := reg.Clone()
				inter.Add(ix.Region(p).HS...)
				if !inter.Feasible() {
					t.Errorf("cell %d: edge from %d has empty intersection", id, p)
				}
			}
		}
	}
}

// TestGridValuedData: datasets on a coarse grid produce ubiquitous score
// ties on hyperplanes. Builders must stay structurally valid and point
// queries must return score-correct rankings.
func TestGridValuedData(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 5; trial++ {
		n := 20 + rng.Intn(20)
		data := make([][]float64, n)
		for i := range data {
			data[i] = []float64{
				float64(rng.Intn(5)) / 4,
				float64(rng.Intn(5)) / 4,
			}
		}
		ix, err := Build(data, Config{Algorithm: PBAPlus, Tau: 3})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ix.Validate(false); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Compare against the deduplicated dataset: Build drops exact
		// duplicate options by design (they tie everywhere), while a raw
		// brute force would count each copy as its own rank.
		uniq, _ := dedupeOptions(data)
		for probe := 0; probe < 30; probe++ {
			x := randReduced(rng, 1)
			got, _ := ix.TopK(x, 3)
			want := bruteTopK(uniq, x, 3)
			for i := range got {
				gs := geom.Score(ix.Pts[got[i]], x)
				ws := geom.Score(uniq[want[i]], x)
				if gs < ws-1e-9 {
					t.Fatalf("trial %d: grid data rank %d: %.6f vs %.6f", trial, i+1, gs, ws)
				}
			}
		}
	}
}

// TestQuickSerializationRoundtrip: every random index must roundtrip
// byte-exactly through the serializer.
func TestQuickSerializationRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(20)
		d := 2 + r.Intn(2)
		tau := 1 + r.Intn(3)
		ix, err := Build(randData(r, n, d), Config{Algorithm: PBAPlus, Tau: tau})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			return false
		}
		first := append([]byte(nil), buf.Bytes()...)
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			return false
		}
		return bytes.Equal(first, buf2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}
