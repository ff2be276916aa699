package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRegionReloadsChangedRows: a region keeps its rows loaded across LP
// predicates only while they are its rows. After a containment test, each
// way of changing a region — Add, AddPref, CopyFrom, Reset, and a trip
// through the scratch pool — must leave it answering ContainsHalfspace and
// Classify as a region freshly built to the same halfspaces does. The
// probes include the halfspaces that change, so rows left over from before
// a change answer differently.
func TestRegionReloadsChangedRows(t *testing.T) {
	SetWitnessFastPaths(false) // every answer from an LP over the loaded rows
	defer SetWitnessFastPaths(true)
	rng := rand.New(rand.NewSource(57))
	const d, dim = 4, 3
	// cut draws a preference halfspace that splits the simplex.
	cut := func() (ri, rj []float64, h Halfspace) {
		for {
			ri, rj = randOption(rng, d), randOption(rng, d)
			h = PrefHalfspace(ri, rj)
			if whole := NewRegion(dim); Classify(whole, h) == RelSplit {
				return ri, rj, h
			}
		}
	}
	for trial := 0; trial < 50; trial++ {
		var hs []Halfspace
		var opts [][2][]float64
		for len(hs) < 3 {
			ri, rj, h := cut()
			if !NewRegion(dim).Add(append(hs, h)...).Feasible() {
				continue
			}
			hs, opts = append(hs, h), append(opts, [2][]float64{ri, rj})
		}
		probes := slices.Clone(hs)
		for len(probes) < 8 {
			_, _, h := cut()
			probes = append(probes, h)
		}
		answers := func(r *Region) []int {
			var out []int
			for _, h := range probes {
				in := 0
				if r.ContainsHalfspace(h) {
					in = 1
				}
				out = append(out, in, int(Classify(r, h)))
			}
			return out
		}
		// check asks used every probe, so that the pooled workspace holds
		// its rows, then changes it and asks the region change returns: the
		// answers must be a fresh region's, built by build.
		check := func(name string, used *Region, change func(*Region) *Region, build func(*Region)) {
			t.Helper()
			fresh := NewRegion(dim)
			build(fresh)
			want := answers(fresh)
			answers(used)
			if got := answers(change(used)); !slices.Equal(got, want) {
				t.Fatalf("trial %d, after %s: %v, a fresh region %v", trial, name, got, want)
			}
		}
		src := NewRegion(dim).Add(hs[1], hs[2])
		used := NewRegion(dim)
		check("Add", used, func(r *Region) *Region { return r.Add(hs[0]) },
			func(r *Region) { r.Add(hs[0]) })
		check("AddPref", used, func(r *Region) *Region { return r.AddPref(opts[1][0], opts[1][1]) },
			func(r *Region) { r.Add(hs[0], hs[1]) })
		check("CopyFrom", used, func(r *Region) *Region { return r.CopyFrom(src) },
			func(r *Region) { r.Add(hs[1], hs[2]) })
		check("Reset", used, func(r *Region) *Region { r.Reset(dim); return r },
			func(*Region) {})

		// A scratch region back from the pool is reinitialized with Reset
		// or CopyFrom, whichever object the pool hands out.
		scratch := GetRegion().CopyFrom(src)
		check("PutRegion and GetRegion", scratch, func(r *Region) *Region {
			PutRegion(r)
			scratch = GetRegion()
			scratch.Reset(dim)
			return scratch.Add(hs[0])
		}, func(r *Region) { r.Add(hs[0]) })
		PutRegion(scratch)
	}
}
