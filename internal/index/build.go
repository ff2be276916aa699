package index

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tlevelindex/internal/dg"
	"tlevelindex/internal/obs"
	"tlevelindex/internal/skyline"
)

// Algorithm selects a τ-LevelIndex construction algorithm.
type Algorithm int

const (
	// PBAPlus is the partition-based approach with dominance-graph candidate
	// computation (§6.3) — the paper's recommended builder.
	PBAPlus Algorithm = iota
	// PBA is the basic partition-based approach that recomputes the
	// candidate r-skyband from scratch for every cell (§6.2).
	PBA
	// IBA is the insertion-based approach (Algorithm 1) with skyline-layer
	// insertion ordering.
	IBA
	// IBAR is IBA with a random insertion order (the paper's IBA-R).
	IBAR
	// BSL is the UTK₂-adapted baseline (§5.1): an independent partition per
	// level followed by pairwise intersection tests to connect levels.
	BSL
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case PBAPlus:
		return "PBA+"
	case PBA:
		return "PBA"
	case IBA:
		return "IBA"
	case IBAR:
		return "IBA-R"
	case BSL:
		return "BSL"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config controls index construction.
type Config struct {
	Algorithm Algorithm
	Tau       int
	// SkipFilter disables the τ-skyband and onion-layer option filters
	// (used by tests that want cells over the raw input).
	SkipFilter bool
	// Onion selects the τ-onion-layer refinement of the option filter
	// (§7.1 applies it together with the skyband). The default, OnionAuto,
	// enables it only for the insertion-based builders, whose cost grows
	// super-linearly with the option count; for the partition builders the
	// LP cost of peeling exceeds what the smaller candidate set saves.
	Onion OnionMode
	// Seed drives the IBA-R shuffle; ignored by other algorithms.
	Seed int64
	// KeepFullData retains the unfiltered dataset inside the index so
	// ExtendTau can deepen it past τ. Defaults to true via Build;
	// zero-value Config keeps it too.
	DropFullData bool
	// Workers bounds the goroutines used for the per-cell LP work during
	// construction and ExtendTau. Values below 1 select
	// runtime.GOMAXPROCS(0). The partition builders run a d=2 build on one
	// goroutine whatever the bound: its cells are too cheap to hand out.
	// The built index is identical for every worker count: the parallel
	// phases only compute, and all structural mutations are applied
	// sequentially in input order.
	Workers int
	// Trace, when non-nil, receives build-phase spans: "build.filter",
	// "build.<algorithm>", "build.compact", one "build.level" span per
	// materialized level of the partition-based builders with its
	// "build.level.compute", "build.level.apply" and "build.level.merge"
	// phases. The rebuild of an accepted InsertBatch or of an ExtendTau
	// emits the build spans from "build.PBA+" on again. nil disables
	// tracing; instrumented code then only pays a nil check.
	Trace obs.Tracer
	// Progress, when non-nil, is called after every completed level of a
	// partition-based build (and of ExtendTau or an insert rebuild) with
	// cells/sec throughput, so long builds can be watched. Called from the
	// build goroutine; it must not call back into the index.
	Progress func(BuildProgress)
}

// BuildProgress is one progress report from a partition-based build, or
// from the rebuild of an insert or an ExtendTau.
type BuildProgress struct {
	Algorithm  string
	Level      int // level just materialized (1-based)
	MaxLevel   int // target level: τ (the new τ for ExtendTau)
	LevelCells int // cells in the completed level after merging
	// Elapsed is wall time since the build started;
	// CellsPerSec is the completed level's instantaneous throughput.
	Elapsed     time.Duration
	CellsPerSec float64
}

// OnionMode controls the onion-layer filter.
type OnionMode int

const (
	// OnionAuto applies the filter for IBA/IBA-R/BSL only.
	OnionAuto OnionMode = iota
	// OnionOn always applies the filter.
	OnionOn
	// OnionOff never applies the filter.
	OnionOff
)

// Build constructs a τ-LevelIndex over data with the configured algorithm.
// Exact duplicate options are removed up front: duplicates score equally
// under every weight vector, so they would only manufacture degenerate
// sibling orderings.
func Build(data [][]float64, cfg Config) (*Index, error) {
	if len(data) == 0 {
		return nil, errors.New("index: empty dataset")
	}
	d := len(data[0])
	if d < 2 {
		return nil, errors.New("index: need at least 2 attributes")
	}
	for i, r := range data {
		if len(r) != d {
			return nil, errors.New("index: ragged dataset")
		}
		if !finite(r) {
			return nil, fmt.Errorf("%w (dataset row %d)", errNotFinite, i)
		}
	}
	if cfg.Tau < 1 {
		return nil, errors.New("index: tau must be >= 1")
	}
	if cfg.Algorithm < PBAPlus || cfg.Algorithm > BSL {
		return nil, fmt.Errorf("index: unknown algorithm %v", cfg.Algorithm)
	}

	var filterSpan obs.Span
	if cfg.Trace != nil {
		filterSpan = obs.StartSpan("build.filter")
	}
	uniq, uniqIDs := dedupeOptions(data)
	var filtered []int
	if cfg.SkipFilter {
		filtered = make([]int, len(uniq))
		for i := range filtered {
			filtered[i] = i
		}
	} else {
		filtered = skyline.Skyband(uniq, cfg.Tau)
		useOnion := cfg.Onion == OnionOn
		if cfg.Onion == OnionAuto {
			switch cfg.Algorithm {
			case IBA, IBAR, BSL:
				useOnion = true
			}
		}
		if useOnion {
			// Refine with the first τ onion layers (§7.1 applies both
			// filters); both are supersets of the rank-≤τ achievers, so the
			// intersection is a sound candidate set.
			sub := make([][]float64, len(filtered))
			for i, fi := range filtered {
				sub[i] = uniq[fi]
			}
			keep := onionFilter(sub, cfg.Tau)
			next := make([]int, len(keep))
			for i, ki := range keep {
				next[i] = filtered[ki]
			}
			sort.Ints(next)
			filtered = next
		}
	}
	pts := make([][]float64, len(filtered))
	orig := make([]int, len(filtered))
	for i, fi := range filtered {
		pts[i] = uniq[fi]
		orig[i] = uniqIDs[fi]
	}
	tau := cfg.Tau
	if tau > len(pts) {
		tau = len(pts)
	}
	if cfg.Trace != nil {
		filterSpan.Set("input", float64(len(data)))
		filterSpan.Set("unique", float64(len(uniq)))
		filterSpan.Set("filtered", float64(len(pts)))
		filterSpan.FinishTo(cfg.Trace)
	}

	ix := &Index{
		Dim: d, Tau: tau,
		Pts: pts, OrigIDs: orig,
		workers:  cfg.Workers,
		trace:    cfg.Trace,
		progress: cfg.Progress,
	}
	if !cfg.DropFullData {
		ix.fullPts = data
	}
	ix.Stats.InputOptions = len(data)
	ix.build(cfg.Algorithm, cfg.Seed, dg.NewVerdictCache())
	return ix, nil
}

// build constructs the cells over ix.Pts with algorithm alg and the verdict
// memo verdicts (nil for none), discarding any cells ix held, and leaves the
// index frozen with its statistics filled. It is the whole of Build after
// the option filter, and of an accepted InsertBatch or an ExtendTau once
// they have grown the pool (and ExtendTau τ): everything
// else a built index holds (Dim, Tau, Pts, OrigIDs, fullPts,
// Stats.InputOptions, the worker bound, the observability hooks, the
// backing) is the caller's and is left as it is.
func (ix *Index) build(alg Algorithm, seed int64, verdicts *dg.VerdictCache) {
	// A rebuild sizes the new cell table from the old one: a build creates
	// about twice the cells it keeps (merged ones are tombstoned).
	ix.Cells, ix.Levels, ix.flat = make([]Cell, 0, 2*len(ix.Cells)), nil, nil
	ix.verdicts = verdicts
	ix.Stats = BuildStats{
		Algorithm:       alg.String(),
		InputOptions:    ix.Stats.InputOptions,
		FilteredOptions: len(ix.Pts),
	}
	ix.newCell(0, NoOption, nil, []int32{})

	var buildSpan obs.Span
	if ix.trace != nil {
		buildSpan = obs.StartSpan("build." + alg.String())
	}
	switch alg {
	case PBAPlus:
		buildPBA(ix, true)
	case PBA:
		buildPBA(ix, false)
	case IBA:
		buildIBA(ix, skyline.LayerOrder(ix.Pts))
	case IBAR:
		order := make([]int, len(ix.Pts))
		for i := range order {
			order[i] = i
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
		buildIBA(ix, order)
	case BSL:
		buildBSL(ix)
	}
	ix.refreshVerdictStats()
	if ix.trace != nil {
		buildSpan.Set("cells", float64(ix.NumCells()))
		buildSpan.Set("lpCalls", float64(ix.Stats.LPCalls))
		buildSpan.Set("verdictHits", float64(ix.Stats.VerdictHits))
		buildSpan.Set("verdictMisses", float64(ix.Stats.VerdictMisses))
		buildSpan.Set("verdictHitRate", ix.Stats.VerdictHitRate())
		buildSpan.FinishTo(ix.trace)
	}
	var compactSpan obs.Span
	if ix.trace != nil {
		compactSpan = obs.StartSpan("build.compact")
	}
	ix.compact()
	ix.fillCellStats()
	if ix.trace != nil {
		compactSpan.Set("cells", float64(ix.NumCells()))
		compactSpan.FinishTo(ix.trace)
	}
}

// dedupeOptions removes exact duplicates, returning the unique points and a
// map back to the first original index of each.
func dedupeOptions(data [][]float64) ([][]float64, []int) {
	type key string
	seen := make(map[key]bool, len(data))
	var uniq [][]float64
	var ids []int
	buf := make([]byte, 0, 64)
	for i, r := range data {
		buf = buf[:0]
		for _, v := range r {
			bits := math.Float64bits(v)
			for s := 0; s < 8; s++ {
				buf = append(buf, byte(bits>>(8*s)))
			}
		}
		k := key(buf)
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, r)
			ids = append(ids, i)
		}
	}
	return uniq, ids
}

// fillCellStats computes per-level cell counts and average hyperplanes per
// cell for the built index.
func (ix *Index) fillCellStats() {
	ix.Stats.CellsPerLevel = make([]int, ix.Tau)
	ix.Stats.HyperplanesPerCell = make([]float64, ix.Tau)
	for l := 1; l <= ix.Tau; l++ {
		ids := ix.Levels[l]
		ix.Stats.CellsPerLevel[l-1] = len(ids)
		if len(ids) == 0 {
			continue
		}
		total := 0
		for _, id := range ids {
			total += ix.HyperplaneCount(id)
		}
		ix.Stats.HyperplanesPerCell[l-1] = float64(total) / float64(len(ids))
	}
}
