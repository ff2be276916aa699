package geom

import (
	"math/rand"
	"testing"
)

// TestRowBufMatchesRegionBitwise: a RowBuf given the calls a Region gets
// holds Region.HS — same rows, order and bits, duplicates dropped at the same
// places — and both match the allocating reference, whose H⁺ arithmetic is
// the pre-prefInto PrefHalfspace kept here verbatim. The draws repeat
// earlier pairs, scale a difference by two (same bits after normalisation),
// pair an option with itself (zero normal) and reproduce a simplex bound, and
// run long enough for the arena to change chunks several times.
func TestRowBufMatchesRegionBitwise(t *testing.T) {
	refPref := func(ri, rj []float64) Halfspace {
		d := len(ri)
		last := ri[d-1] - rj[d-1]
		a := make([]float64, d-1)
		for k := 0; k < d-1; k++ {
			a[k] = -((ri[k] - rj[k]) - last)
		}
		return NewHalfspace(a, last)
	}
	rng := rand.New(rand.NewSource(2702))
	for dim := 1; dim <= 4; dim++ {
		ref, reg := NewRegion(dim), NewRegion(dim)
		var buf RowBuf
		buf.Reset(dim)
		pt := func() []float64 {
			p := make([]float64, dim+1)
			for i := range p {
				p[i] = float64(rng.Intn(64)) / 64
			}
			return p
		}
		var pairs [][2][]float64
		dropped := 0
		for it := 0; it < 400; it++ {
			ri, rj := pt(), pt()
			switch {
			case it%7 == 3:
				rj = ri
			case it%7 == 5 && len(pairs) > 0:
				p := pairs[rng.Intn(len(pairs))]
				ri, rj = p[0], p[1]
			case it%7 == 6 && len(pairs) > 0: // rj' = ri − (ri − rj)/2, exact on the grid
				p := pairs[rng.Intn(len(pairs))]
				ri, rj = p[0], make([]float64, dim+1)
				for k := range rj {
					rj[k] = ri[k] - (ri[k]-p[1][k])/2
				}
			case it == 0: // x[0] ≥ 0, the first simplex bound
				ri, rj = make([]float64, dim+1), make([]float64, dim+1)
				ri[0] = 0.5
			}
			pairs = append(pairs, [2][]float64{ri, rj})
			before := len(buf.Rows)
			ref.Add(refPref(ri, rj))
			reg.AddPref(ri, rj)
			buf.AddPref(ri, rj)
			if len(buf.Rows) == before {
				dropped++
			}
		}
		if dropped < 50 || len(buf.Rows) < 200 {
			t.Fatalf("dim %d: %d rows, %d dropped: the draws do not exercise dedup", dim, len(buf.Rows), dropped)
		}
		for name, got := range map[string][]Halfspace{"Region.AddPref": reg.HS, "RowBuf.AddPref": buf.Rows} {
			if len(got) != len(ref.HS) {
				t.Fatalf("dim %d: %s holds %d rows, reference %d", dim, name, len(got), len(ref.HS))
			}
			for i, h := range got {
				if !sameRow(h, ref.HS[i]) {
					t.Fatalf("dim %d: %s row %d = %v, reference %v", dim, name, i, h, ref.HS[i])
				}
			}
		}
		if reg.Hash() != ref.Hash() {
			t.Fatalf("dim %d: region hash %x, reference %x", dim, reg.Hash(), ref.Hash())
		}
		// Reset recycles both the row slice and the arena.
		first := &buf.Rows[0]
		buf.Reset(dim)
		if len(buf.Rows) != dim+1 || &buf.Rows[0] != first {
			t.Fatalf("dim %d: Reset left %d rows (want the %d simplex bounds) or moved the slice", dim, len(buf.Rows), dim+1)
		}
	}
}
