package tlevelindex

import (
	"context"
	"unsafe"

	"tlevelindex/internal/geom"
	"tlevelindex/internal/index"
)

// Halfspace is the closed set {x : A·x ≤ B} in reduced preference
// coordinates (see the package docs for the coordinate convention).
type Halfspace struct {
	A []float64
	B float64
}

// Region is a convex piece of preference space: the intersection of its
// halfspaces (the simplex bounds are included).
//
// A region a query returns shares its halfspaces, coefficients included,
// with the index version that answered, so it costs the query no copy: read
// it, or copy it before changing it. Appending to Halfspaces is safe, since
// its capacity ends at its length; writing an element or a coefficient in
// place changes the index's own rows. The index never writes them, so a
// region stays valid, and keeps its version's rows alive, as long as it is
// held.
type Region struct {
	Halfspaces []Halfspace
}

// Feasible reports whether the region has nonempty interior-or-boundary in
// the weight simplex — whether any valid weight vector satisfies all its
// halfspaces. Regions returned by queries are always feasible; the helper
// is for regions assembled or tightened by the caller. It runs one
// feasibility LP (a region with no halfspaces is the whole simplex).
func (r Region) Feasible() bool {
	if len(r.Halfspaces) == 0 {
		return true
	}
	reg := geom.NewRegion(len(r.Halfspaces[0].A))
	for _, h := range r.Halfspaces {
		reg.Add(geom.Halfspace{A: h.A, B: h.B})
	}
	return reg.Feasible()
}

// Contains reports whether the reduced point x lies in the region.
func (r Region) Contains(x []float64) bool {
	for _, h := range r.Halfspaces {
		dot := -h.B
		for i, a := range h.A {
			dot += a * x[i]
		}
		if dot > 1e-9 {
			return false
		}
	}
	return true
}

// exportRegion returns a cell's rows as a Region without copying them: the
// halfspaces are the index's own, in the rows column of a published
// version, which nothing writes once filled (see Region). The pointer
// conversion compiles only while Halfspace and geom.Halfspace have one
// layout. Rows are never empty (every cell has its simplex rows); the
// empty case stays a non-nil slice, as a copy was.
func exportRegion(rows geom.Rows) Region {
	if len(rows) == 0 {
		return Region{Halfspaces: []Halfspace{}}
	}
	return Region{Halfspaces: unsafe.Slice((*Halfspace)(&rows[0]), len(rows))}
}

// QueryStats reports traversal effort — the cells visited during the index
// walk and the linear programs solved on the way (the paper's Table 5
// metrics). Every query type exports it. The focal-option families read
// cells from a per-option column instead of walking to them, so for kSPR
// and the queries built on it VisitedCells is the number of kSPR cells, and
// for MaxRank it is 1 (0 when the option has no cell). UTK scans the level-k
// cells' bounding boxes instead of walking down to them, so its VisitedCells
// counts the cells whose box meets the query box. ORU's VisitedCells counts
// the cells its best-first walk expanded, and its LPCalls the exact
// point-to-cell distances it computed: one for each cell that could add an
// option when it came off the heap.
type QueryStats struct {
	VisitedCells int
	LPCalls      int
}

func exportStats(s index.QueryStats) QueryStats {
	return QueryStats{VisitedCells: s.VisitedCells, LPCalls: s.LPCalls}
}

// KSPRResult answers a k-shortlist preference region query (Problem 2).
type KSPRResult struct {
	// Regions are the preference-space pieces (reduced coordinates) in
	// which the focal option ranks top-k; their union is the full answer.
	// They come in ascending order of the rank the focal option holds in
	// them, and in index cell order within one rank.
	Regions []Region
	Stats   QueryStats
}

// KSPR returns the regions of preference space in which the focal option
// (a dataset index) ranks top-k. An option outside the k-skyband yields an
// empty result: it ranks below k everywhere.
func (ix *Index) KSPR(k, focal int) (*KSPRResult, error) {
	return ix.kspr(context.Background(), k, focal)
}

// UTKPartition is one piece of the query region with a fixed top-k set.
type UTKPartition struct {
	TopK   []int // dataset indices, as a set
	Region Region
}

// UTKResult answers an uncertain top-k query (Problem 3).
type UTKResult struct {
	// Options are all dataset indices that rank top-k for some weight in
	// the query region, ascending.
	Options []int
	// Partitions subdivide the query region by top-k result set, in index
	// cell order.
	Partitions []UTKPartition
	Stats      QueryStats
}

// UTK reports every option that can rank top-k for a weight inside the box
// [lo, hi] in reduced preference coordinates, along with the partitioning
// of the box by top-k result set. A box with a NaN or infinite coordinate
// is an error.
func (ix *Index) UTK(k int, lo, hi []float64) (*UTKResult, error) {
	return ix.utk(context.Background(), k, lo, hi)
}

// ORUResult answers an output-size specified utility-based query
// (Problem 4).
type ORUResult struct {
	// Options are the m reported dataset indices in ascending expansion
	// distance.
	Options []int
	// Rho is the minimum expansion radius around the query weight whose
	// top-k results cover all m options.
	Rho   float64
	Stats QueryStats
}

// ORU reports m options, each of which ranks top-k for at least one weight
// within the minimum expansion distance ρ of w (a full weight vector).
func (ix *Index) ORU(k int, w []float64, m int) (*ORUResult, error) {
	return ix.oru(context.Background(), k, w, m)
}

// TopK returns the k best dataset indices for the full weight vector w, in
// rank order: an index walk. A k beyond τ returns ErrBeyondTau.
func (ix *Index) TopK(w []float64, k int) ([]int, error) {
	res, err := ix.topK(context.Background(), w, k)
	if err != nil {
		return nil, err
	}
	return res.Options, nil
}

// MaxRank returns the best (smallest) rank the option attains anywhere in
// preference space, or -1 when the option never ranks within τ.
func (ix *Index) MaxRank(opt int) (int, error) {
	res, err := ix.MaxRankContext(context.Background(), opt)
	if err != nil {
		return 0, err
	}
	return res.Rank, nil
}

// WhyNotResult explains an option's absence from a user's top-k.
type WhyNotResult struct {
	// Rank is the option's rank at the query weights (1-based, within the
	// indexed option pool).
	Rank int
	// InTopK reports whether the option already ranks top-k there.
	InTopK bool
	// MinShift is the smallest preference perturbation (Euclidean, reduced
	// coordinates) after which the option enters the top-k; 0 when InTopK,
	// -1 when the option cannot rank top-k anywhere.
	MinShift float64
	// SuggestedW is the nearest full weight vector under which the option
	// ranks top-k (nil when none exists). It answers the "how should the
	// user change their preferences" half of the why-not query.
	SuggestedW []float64
	// Stats reports the traversal effort of the underlying kSPR walk plus
	// the projection LPs.
	Stats QueryStats
}

// WhyNot explains why the option is or is not among the user's top-k and
// how far the weights must move to change that.
func (ix *Index) WhyNot(opt int, w []float64, k int) (*WhyNotResult, error) {
	return ix.whyNot(context.Background(), opt, w, k)
}

// Interval is a segment of the 1-dimensional reduced preference space of a
// 2-attribute dataset.
type Interval struct {
	Lo, Hi float64
}

// MonoRTopK answers the monochromatic reverse top-k query for 2-attribute
// datasets: the maximal segments of the first weight w[1] in which the
// focal option ranks top-k (merged and sorted). It errors for d != 2; use
// KSPR for general dimensionalities.
func (ix *Index) MonoRTopK(k, focal int) ([]Interval, error) {
	res, err := ix.monoRTopK(context.Background(), k, focal)
	if err != nil {
		return nil, err
	}
	return res.Intervals, nil
}

// MarketShare returns the fraction of preference space (by volume) in which
// the focal option ranks top-k — the provider-side competitiveness measure
// behind the paper's motivating scenarios. The result is in [0, 1]: exact
// for 2- and 3-attribute datasets, Monte-Carlo estimated (with the given
// deterministic seed) above that.
func (ix *Index) MarketShare(focal, k int) (float64, error) {
	res, err := ix.marketShare(context.Background(), focal, k)
	if err != nil {
		return 0, err
	}
	return res.Share, nil
}

// ReverseTopK answers the bichromatic reverse top-k query of type DD
// (§2.2): given a discrete population of user weight vectors, return the
// indices of the users whose top-k result contains the focal option. The
// kSPR regions are computed once; each user is then a constant-time
// point-membership test — the acceleration the paper's related-work
// discussion promises for DD-type queries.
func (ix *Index) ReverseTopK(k, focal int, users [][]float64) ([]int, error) {
	res, err := ix.reverseTopK(context.Background(), k, focal, users)
	if err != nil {
		return nil, err
	}
	return res.Users, nil
}
