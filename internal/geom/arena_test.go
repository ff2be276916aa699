package geom

import (
	"math"
	"math/rand"
	"testing"
)

// TestAddPrefMatchesAddBitwise: AddPref is the arena-backed fast path for
// Add(PrefHalfspace(ri, rj)). The two must agree bit for bit — coefficients,
// offsets, dedup keys, and the region hash (which keys BSL's dominance memo) —
// or incremental builds would diverge from the historical ones.
func TestAddPrefMatchesAddBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const dim = 3
	a := NewRegion(dim)
	b := NewRegion(dim)
	pt := func() []float64 {
		p := make([]float64, dim+1)
		for i := range p {
			p[i] = rng.Float64()
		}
		return p
	}
	for it := 0; it < 200; it++ {
		ri, rj := pt(), pt()
		if it%10 == 0 {
			rj = ri // degenerate pair: zero-norm coefficient path
		}
		a.Add(PrefHalfspace(ri, rj))
		b.AddPref(ri, rj)
		if len(a.HS) != len(b.HS) {
			t.Fatalf("iter %d: halfspace counts diverge: %d vs %d", it, len(a.HS), len(b.HS))
		}
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("region hashes diverge: %x vs %x", a.Hash(), b.Hash())
	}
	for i := range a.HS {
		if math.Float64bits(a.HS[i].B) != math.Float64bits(b.HS[i].B) {
			t.Fatalf("halfspace %d: B %v vs %v", i, a.HS[i].B, b.HS[i].B)
		}
		for k := range a.HS[i].A {
			if math.Float64bits(a.HS[i].A[k]) != math.Float64bits(b.HS[i].A[k]) {
				t.Fatalf("halfspace %d coeff %d: %v vs %v", i, k, a.HS[i].A[k], b.HS[i].A[k])
			}
		}
	}
}

// TestCopyFromRebasesArena: a copy must stay intact after its source —
// typically pooled scratch — is Reset and refilled. Shared coefficient
// backing would silently corrupt the copy.
func TestCopyFromRebasesArena(t *testing.T) {
	src := NewRegion(2)
	src.AddPref([]float64{0.9, 0.2, 0.1}, []float64{0.1, 0.8, 0.3})
	src.AddPref([]float64{0.4, 0.7, 0.2}, []float64{0.6, 0.1, 0.5})

	dst := NewRegion(2)
	dst.CopyFrom(src)
	want := make([][]float64, len(dst.HS))
	for i, h := range dst.HS {
		want[i] = append([]float64(nil), h.A...)
	}
	wantHash := dst.Hash()

	// Recycle the source the way the query scratch pool does.
	src.Reset(2)
	src.AddPref([]float64{0.2, 0.2, 0.9}, []float64{0.8, 0.5, 0.1})
	src.AddPref([]float64{0.3, 0.9, 0.4}, []float64{0.7, 0.2, 0.6})

	if dst.Hash() != wantHash {
		t.Fatal("copy hash changed after source reuse")
	}
	for i, h := range dst.HS {
		for k := range h.A {
			if h.A[k] != want[i][k] {
				t.Fatalf("halfspace %d coeff %d corrupted after source reuse", i, k)
			}
		}
	}
}
