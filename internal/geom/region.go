package geom

import (
	"math"
	"sync"
	"sync/atomic"

	"tlevelindex/internal/lp"
	"tlevelindex/internal/pool"
)

// Numeric tolerances for the LP-backed predicates. Halfspace normals are
// unit length, so these are effectively relative tolerances.
const (
	// InteriorEps is the minimum Chebyshev margin for a region to count as
	// full-dimensional (non-degenerate interior).
	InteriorEps = 1e-7
	// ContainTol is the slack allowed in containment tests.
	ContainTol = 1e-7
	// PointTol is the slack allowed in point-membership tests.
	PointTol = 1e-9
)

// fastPathsOff disables the witness-point LP short-circuits when nonzero.
// It exists for the ablation experiment and for tests that want to compare
// the fast paths against the pure-LP reference; see SetWitnessFastPaths.
var fastPathsOff atomic.Bool

// SetWitnessFastPaths enables or disables the witness-point short-circuits
// in Feasible, ContainsHalfspace, and Classify (enabled by default). The
// LP fallbacks always remain sound; this knob only controls whether the
// cheap certificates are consulted first. Intended for benchmarks/ablations.
func SetWitnessFastPaths(enabled bool) { fastPathsOff.Store(!enabled) }

// Region is a convex subset of the reduced preference simplex expressed as
// an intersection of halfspaces. The simplex bounds are part of HS, so a
// freshly built Region is the whole simplex.
//
// Alongside the halfspace list a region caches cheap geometric certificates:
// a witness point (any known interior point — the Chebyshev center of the
// last feasibility LP, or a point supplied by SetWitness) with its worst
// constraint slack, a canonical hash of the halfspace set, an emptiness
// flag, and for a one-dimensional region the interval it spans. The
// predicates consult the certificates before building a tableau, which
// answers the common cases in O(dim) instead of an LP solve.
type Region struct {
	Dim int
	HS  []Halfspace

	// keys[i] is the canonical hash of HS[i]; Add uses it to deduplicate
	// halfspaces that reach the region via several paths (cloned siblings,
	// merged bounds). hash is the order-independent combination of keys —
	// the cell-region identity BSL's dominance memo keys on.
	keys []uint64
	hash uint64

	// witness is a point known to satisfy every halfspace when
	// witnessSlack >= 0; witnessSlack is min over HS of -h.Eval(witness)
	// (the distance to the nearest constraint, normals being unit length).
	// Add updates the slack incrementally, so a halfspace cutting the
	// witness off invalidates the certificate without a scan.
	witness      []float64
	witnessSlack float64

	// empty records a proven-infeasible constraint system. Add only ever
	// shrinks the region, so the flag is sticky until Reset.
	empty bool

	// arena backs the coefficient vectors of halfspaces built in place by
	// AddPref (and rebased by CopyFrom), so reconstructing a region does not
	// allocate per halfspace; see arenaAlloc. Reset truncates the current
	// chunk.
	arena []float64

	// span is the interval [span[0], span[1]] a one-dimensional region
	// covers, valid while spanSet; push clears the flag and ContainsHalfspace
	// recomputes it on demand.
	span    [2]float64
	spanSet bool
}

// NewRegion returns the full reduced preference simplex of dimension dim.
// The simplex centroid is installed as the initial witness, so a region
// that is never constrained past its simplex bounds answers Feasible
// without any LP at all.
func NewRegion(dim int) *Region {
	r := &Region{}
	r.Reset(dim)
	return r
}

// Reset reinitializes r to the full simplex of dimension dim, reusing its
// backing arrays. It is the recycling counterpart of NewRegion for scratch
// regions obtained from GetRegion.
func (r *Region) Reset(dim int) {
	r.Dim = dim
	r.HS = r.HS[:0]
	r.keys = r.keys[:0]
	r.hash = 0
	r.empty = false
	r.spanSet = false
	r.witness = r.witness[:0]
	r.witnessSlack = 0
	r.arena = r.arena[:0]
	r.Add(simplexBoundsCached(dim)...)
	// Centroid of the reduced simplex: x_k = 1/(dim+1) keeps equal slack to
	// every bound — a constant interior witness.
	for k := 0; k < dim; k++ {
		r.witness = append(r.witness, 1/float64(dim+1))
	}
	r.witnessSlack = r.computeSlack(r.witness)
}

// EmptyRegionLike returns a region with the same dimension but no
// constraints at all (the whole of R^dim, before simplex bounds). It is a
// building block for callers that assemble constraint sets manually.
func EmptyRegionLike(dim int) *Region {
	return &Region{Dim: dim}
}

// simplexBounds caches the (immutable) simplex bound halfspaces per
// dimension, so Reset does not allocate them anew for every recycled scratch
// region. The map is copy-on-write behind an atomic.Value: readers never
// lock, and the set of distinct dimensions in a process is tiny.
var (
	simplexBoundsMu    sync.Mutex
	simplexBoundsCache atomic.Value // map[int][]Halfspace
)

func simplexBoundsCached(dim int) []Halfspace {
	m, _ := simplexBoundsCache.Load().(map[int][]Halfspace)
	if hs, ok := m[dim]; ok {
		return hs
	}
	simplexBoundsMu.Lock()
	defer simplexBoundsMu.Unlock()
	m, _ = simplexBoundsCache.Load().(map[int][]Halfspace)
	if hs, ok := m[dim]; ok {
		return hs
	}
	next := make(map[int][]Halfspace, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	hs := SimplexBounds(dim)
	next[dim] = hs
	simplexBoundsCache.Store(next)
	return hs
}

// regions recycles scratch Regions for callers that rebuild constraint sets
// per visit (query traversals, per-candidate child regions).
var regions = pool.NewScratch(func() *Region { return &Region{} })

// GetRegion returns a scratch region from the shared pool. The caller must
// Reset or CopyFrom it before use and should PutRegion it when done.
func GetRegion() *Region { return regions.Get() }

// PutRegion recycles a scratch region obtained from GetRegion.
func PutRegion(r *Region) { regions.Put(r) }

// Add appends halfspaces to the region (mutating it) and returns the region
// for chaining. Halfspaces already present (canonically identical A and B)
// are skipped, so sibling regions assembled from overlapping bounding sets
// do not accumulate duplicate LP rows; the witness slack is maintained
// incrementally.
func (r *Region) Add(hs ...Halfspace) *Region {
	for _, h := range hs {
		r.push(h)
	}
	return r
}

// push appends h with its bookkeeping — dedup key, region hash, witness
// slack — and reports whether it was new to the region.
func (r *Region) push(h Halfspace) bool {
	k := h.key()
	for i, ki := range r.keys {
		// Equality is verified on a hash match, so a collision can never
		// drop a distinct constraint.
		if ki == k && sameRow(r.HS[i], h) {
			return false
		}
	}
	r.HS = append(r.HS, h)
	r.keys = append(r.keys, k)
	r.spanSet = false
	r.hash += mix64(k)
	if len(r.witness) == r.Dim && r.Dim > 0 {
		if s := -h.Eval(r.witness); s < r.witnessSlack {
			r.witnessSlack = s
		}
	}
	return true
}

// AddPref adds H⁺(ri, rj) — the halfspace where option ri scores at least
// rj — computing its coefficients into the region's arena instead of a fresh
// allocation: RowBuf.AddPref's bare append plus push's bookkeeping, and
// bit-for-bit equivalent to Add(PrefHalfspace(ri, rj)). Deduplicated
// halfspaces roll their arena reservation back.
func (r *Region) AddPref(ri, rj []float64) *Region {
	dim := len(ri) - 1
	a := arenaAlloc(&r.arena, dim)
	if !r.push(Halfspace{A: a, B: prefInto(a, ri, rj)}) {
		r.arena = r.arena[:len(r.arena)-dim]
	}
	return r
}

// Hash returns an order-independent identity of the region's halfspace set.
// Two regions assembled from the same (deduplicated) halfspaces hash
// equally regardless of insertion order; BSL keys its memoized
// C-dominance verdicts on it.
func (r *Region) Hash() uint64 { return r.hash }

// Clone returns a deep-enough copy: the halfspace slice is copied, the
// (immutable) halfspaces are shared, and the cached certificates carry over.
func (r *Region) Clone() *Region {
	c := &Region{}
	c.CopyFrom(r)
	return c
}

// CopyFrom overwrites r with a copy of src, reusing r's backing arrays. The
// halfspace coefficient vectors are rebased into r's own arena: src may be a
// recycled scratch region whose arena is overwritten after it is returned to
// the pool, so r must not alias it.
func (r *Region) CopyFrom(src *Region) *Region {
	r.Dim = src.Dim
	r.HS = r.HS[:0]
	r.arena = r.arena[:0]
	for _, h := range src.HS {
		a := arenaAlloc(&r.arena, len(h.A))
		copy(a, h.A)
		r.HS = append(r.HS, Halfspace{A: a, B: h.B})
	}
	r.keys = append(r.keys[:0], src.keys...)
	r.hash = src.hash
	r.witness = append(r.witness[:0], src.witness...)
	r.witnessSlack = src.witnessSlack
	r.empty = src.empty
	r.span, r.spanSet = src.span, src.spanSet
	return r
}

// SetWitness installs x as the region's witness point, computing its slack.
// The builders call it with the interior points they already carry per cell
// (inherited witnesses, sample certificates), which arms the fast paths
// without a Chebyshev LP.
func (r *Region) SetWitness(x []float64) {
	if len(x) != r.Dim {
		return
	}
	r.witness = append(r.witness[:0], x...)
	r.witnessSlack = r.computeSlack(x)
}

// Witness returns a cached interior point certifying a full-dimensional
// region, or ok=false when no such certificate is available. The returned
// slice is region-owned; callers must not mutate it.
func (r *Region) Witness() (x []float64, ok bool) {
	if len(r.witness) == r.Dim && r.Dim > 0 && r.witnessSlack > InteriorEps {
		return r.witness, true
	}
	return nil, false
}

// computeSlack returns min over HS of -h.Eval(x): positive when x is
// strictly interior, negative when some constraint cuts it off.
func (r *Region) computeSlack(x []float64) float64 {
	s := math.Inf(1)
	for _, h := range r.HS {
		if v := -h.Eval(x); v < s {
			s = v
		}
	}
	if math.IsInf(s, 1) {
		return 0
	}
	return s
}

// cacheWitness stores a workspace-owned point as the region witness.
func (r *Region) cacheWitness(x []float64, slack float64) {
	r.witness = append(r.witness[:0], x...)
	r.witnessSlack = slack
}

// ContainsPoint reports whether x satisfies every halfspace within tol.
func (r *Region) ContainsPoint(x []float64, tol float64) bool {
	return Rows(r.HS).ContainsPoint(x, tol)
}

// chebyshevWS builds and solves max t s.t. A_i·x + t ≤ b_i, t ≤ 1 over
// x ≥ 0, t ≥ 0 on the given workspace. It returns the maximizing x
// (workspace-owned), the margin t*, and whether the constraint system
// admits any solution at all. On success the center is cached as the
// region's witness; proven infeasibility sets the sticky empty flag.
func (r *Region) chebyshevWS(ws *lp.Workspace) (x []float64, margin float64, feasible bool) {
	n := r.Dim + 1 // x plus margin variable t
	ws.Begin(n)
	for _, h := range r.HS {
		if triv, whole := h.Trivial(); triv {
			if !whole {
				r.empty = true
				return nil, 0, false
			}
			continue
		}
		row := ws.AppendRow(h.B)
		copy(row, h.A)
		row[r.Dim] = 1
	}
	capRow := ws.AppendRow(1)
	capRow[r.Dim] = 1
	c := ws.Cost()
	c[r.Dim] = 1
	res := ws.SolveMax(c)
	if res.Status != lp.Optimal {
		if res.Status == lp.Infeasible {
			r.empty = true
		}
		return nil, 0, false
	}
	x, margin = res.X[:r.Dim], res.X[r.Dim]
	if margin > InteriorEps {
		// Cache the deepest point found; its true slack equals the margin
		// except for the artificial t ≤ 1 cap, so recompute exactly once.
		r.cacheWitness(x, r.computeSlack(x))
		x = r.witness
	}
	return x, margin, true
}

// Feasible reports whether the region has a full-dimensional interior
// (Chebyshev margin above InteriorEps). Degenerate lower-dimensional
// intersections — cells touching only along a boundary — count as empty,
// which is exactly the edge semantics of Definition 4.
//
// A cached witness with positive slack answers without an LP; so does a
// previously proven-empty constraint system.
func (r *Region) Feasible() bool {
	if r.empty {
		return false
	}
	if !fastPathsOff.Load() {
		if _, ok := r.Witness(); ok {
			witnessSettles.Add(1)
			return true
		}
	}
	ws := lp.Get()
	defer lp.Put(ws)
	_, m, ok := r.chebyshevWS(ws)
	return ok && m > InteriorEps
}

// FeasibleMargin returns the Chebyshev margin (radius of the largest inball,
// capped at 1) and whether the region is nonempty at all. The margin is
// always computed exactly (callers compare margins across regions), but the
// solve still warms the witness cache for later predicate calls.
func (r *Region) FeasibleMargin() (float64, bool) {
	if r.empty {
		return 0, false
	}
	ws := lp.Get()
	defer lp.Put(ws)
	_, m, ok := r.chebyshevWS(ws)
	return m, ok
}

// ChebyshevCenter returns a deepest interior point and its margin. ok is
// false when the region has no full-dimensional interior. The returned
// point is region-owned (it doubles as the cached witness); callers must
// copy it if they outlive the region.
func (r *Region) ChebyshevCenter() (x []float64, margin float64, ok bool) {
	if r.empty {
		return nil, 0, false
	}
	ws := lp.Get()
	defer lp.Put(ws)
	x, m, feas := r.chebyshevWS(ws)
	if !feas || m <= InteriorEps {
		return nil, m, false
	}
	return x, m, true
}

// maximize returns the maximum of a·x over the region; ok is false when the
// region is empty (in which case callers usually treat predicates as
// vacuously true). Unbounded cannot happen for regions inside the simplex,
// but is mapped to +Inf defensively.
func (r *Region) maximize(a []float64) (float64, bool) {
	if r.empty {
		return 0, false
	}
	ws := lp.Get()
	defer lp.Put(ws)
	if !r.load(ws) {
		return 0, false
	}
	return r.maxOver(ws, a)
}

// load assembles the region's rows in ws for any number of maxOver calls.
// It returns false, and marks the region empty, when one of its halfspaces
// is trivially empty.
func (r *Region) load(ws *lp.Workspace) bool {
	ws.Begin(r.Dim)
	for _, h := range r.HS {
		if triv, whole := h.Trivial(); triv {
			if !whole {
				r.empty = true
				return false
			}
			continue
		}
		copy(ws.AppendRow(h.B), h.A)
	}
	return true
}

// maxOver maximizes a·x over the rows load assembled in ws, with the
// results of maximize.
func (r *Region) maxOver(ws *lp.Workspace, a []float64) (float64, bool) {
	res := ws.SolveMax(a)
	switch res.Status {
	case lp.Infeasible:
		r.empty = true
		return 0, false
	case lp.Unbounded:
		return math.Inf(1), true
	}
	return res.Objective, true
}

// witnessIn reports whether the cached witness is a valid region point
// (within tolerance), making it usable as a one-sided certificate.
func (r *Region) witnessIn() bool {
	return !fastPathsOff.Load() && len(r.witness) == r.Dim && r.Dim > 0 && r.witnessSlack >= 0
}

// ContainsHalfspace reports whether h ⊇ region, i.e. every point of the
// region satisfies h. Empty regions are vacuously contained. A witness on
// the violating side of h refutes containment without an LP, and a
// one-dimensional region, an interval, is settled at its two ends.
func (r *Region) ContainsHalfspace(h Halfspace) bool {
	if triv, whole := h.Trivial(); triv {
		return whole
	}
	if r.empty {
		return true
	}
	if r.witnessIn() && h.Eval(r.witness) > ContainTol {
		witnessEscapes.Add(1)
		return false // the witness itself escapes h
	}
	if r.Dim == 1 && !fastPathsOff.Load() {
		if lo, hi, ok := r.interval(); ok {
			// The LP's maximum is a·lo or a·hi up to its rounding, so a
			// margin of spanGuard either way of the tolerance decides as
			// the LP would; only a maximum inside the band goes to it.
			max := h.A[0] * hi
			if h.A[0] < 0 {
				max = h.A[0] * lo
			}
			switch {
			case max <= h.B+ContainTol-spanGuard:
				return true
			case max > h.B+ContainTol+spanGuard:
				return false
			}
		}
	}
	max, ok := r.maximize(h.A)
	if !ok {
		return true // empty region
	}
	return max <= h.B+ContainTol
}

// spanGuard is the margin by which a one-dimensional answer must clear a
// tolerance before it stands in for the LP's, far above the rounding of
// either: the ends are single divisions of unit-normal rows, and the LP
// optimum over one variable is one pivot on such a row.
const spanGuard = 1e-12

// interval returns the interval [lo, hi] a one-dimensional region covers,
// with ok false when the region may be empty or thinner than spanGuard, in
// which case the caller asks the LP. The LP's variable is nonnegative, so
// lo starts at 0 as the LP's does; the simplex bounds cap hi.
func (r *Region) interval() (lo, hi float64, ok bool) {
	if !r.spanSet {
		lo, hi = 0, math.Inf(1)
		for _, h := range r.HS {
			switch a := h.A[0]; {
			case a > 0:
				if b := h.B / a; b < hi {
					hi = b
				}
			case a < 0:
				if b := h.B / a; b > lo {
					lo = b
				}
			case h.B < 0:
				lo, hi = 1, 0 // a trivially empty row
			}
		}
		r.span, r.spanSet = [2]float64{lo, hi}, true
	}
	lo, hi = r.span[0], r.span[1]
	return lo, hi, hi-lo > spanGuard && !math.IsInf(hi, 1)
}

// Rel classifies the position of a hyperplane relative to a region.
type Rel int

const (
	// RelInside: the positive halfspace contains the whole region.
	RelInside Rel = iota
	// RelOutside: the complement halfspace contains the whole region.
	RelOutside
	// RelSplit: the hyperplane cuts through the region's interior.
	RelSplit
)

// Classify determines whether h covers the region, its complement covers the
// region, or the bounding hyperplane splits the region. This is the
// three-case test at the heart of the insertion-based builder (IBA).
//
// A cached witness settles one side for free: a witness strictly violating
// h rules out RelInside (skipping that LP entirely), a witness strictly
// inside h rules out RelOutside.
func Classify(r *Region, h Halfspace) Rel {
	if triv, whole := h.Trivial(); triv {
		if whole {
			return RelInside
		}
		return RelOutside
	}
	if r.empty {
		return RelInside // empty region: vacuous, callers prune separately
	}
	neg := h.Neg()
	if r.witnessIn() {
		switch v := h.Eval(r.witness); {
		case v > ContainTol:
			witnessClassifies.Add(1)
			// The witness escapes h: RelInside is impossible; decide between
			// RelOutside and RelSplit with the one remaining LP.
			min, ok := r.maximize(neg.A)
			if !ok {
				return RelInside
			}
			if min <= neg.B+ContainTol {
				return RelOutside
			}
			return RelSplit
		case v < -ContainTol:
			witnessClassifies.Add(1)
			// The witness is strictly inside h: RelOutside is impossible.
			max, ok := r.maximize(h.A)
			if !ok {
				return RelInside
			}
			if max <= h.B+ContainTol {
				return RelInside
			}
			return RelSplit
		}
	}
	// Both sides are open: assemble the rows once and solve the two
	// objectives over them.
	ws := lp.Get()
	defer lp.Put(ws)
	if !r.load(ws) {
		return RelInside // empty region: vacuous, callers prune separately
	}
	max, ok := r.maxOver(ws, h.A)
	if !ok {
		return RelInside
	}
	if max <= h.B+ContainTol {
		return RelInside
	}
	min, ok := r.maxOver(ws, neg.A)
	if !ok {
		return RelInside
	}
	if min <= neg.B+ContainTol {
		return RelOutside
	}
	return RelSplit
}

// IntersectsRegion reports whether the two regions share a full-dimensional
// intersection. The combined constraint set is assembled in a pooled
// scratch region, so repeated pairwise tests do not allocate.
func (r *Region) IntersectsRegion(o *Region) bool {
	comb := GetRegion()
	defer PutRegion(comb)
	comb.CopyFrom(r)
	comb.Add(o.HS...)
	return comb.Feasible()
}
