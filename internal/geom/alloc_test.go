//go:build !race

package geom

import (
	"math/rand"
	"testing"
)

// TestClassifyZeroAllocs pins Classify at zero allocations on a warm pool,
// whichever sides the witness settles: the complement's normal is negated
// into workspace memory, not into a fresh halfspace. The race detector
// makes sync.Pool drop puts at random, hence the build tag.
func TestClassifyZeroAllocs(t *testing.T) {
	defer SetWitnessFastPaths(true)
	rng := rand.New(rand.NewSource(2))
	reg, interior := randTightRegion(rng, 3, 16, 0.05)
	reg.SetWitness(interior)
	a := make([]float64, 3)
	for k := range a {
		a[k] = rng.NormFloat64()
	}
	h := NewHalfspace(a, 0)
	for _, c := range []struct {
		name   string
		offset float64 // h.B − h·witness
		fast   bool
	}{
		{"witness outside", -0.2, true},
		{"witness inside", 0.2, true},
		{"lp-only", -0.2, false},
	} {
		h.B = Dot(h.A, interior) + c.offset
		SetWitnessFastPaths(c.fast)
		Classify(reg, h) // warm the workspace pool
		if allocs := testing.AllocsPerRun(100, func() { Classify(reg, h) }); allocs != 0 {
			t.Errorf("%s: Classify allocates %.1f objects per call, want 0", c.name, allocs)
		}
	}
}
