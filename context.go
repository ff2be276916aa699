package tlevelindex

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"tlevelindex/internal/geom"
	"tlevelindex/internal/obs"
)

// This file holds the one implementation of every query family and its
// context-aware entry point; the plain methods in queries.go are adapters
// over the same implementations under context.Background(). The *Context
// variants add two things:
//
//   - Cancellation: the traversal polls ctx between cell visits and
//     abandons the query with the context's error, so a slow region walk
//     cannot outlive its HTTP request or caller deadline.
//   - Stats: every result carries the QueryStats of its traversal.
//
// Every query only reads the index, so any number of them may run at once.
// A k beyond τ is refused with ErrBeyondTau; ExtendTau deepens the index.
//
// Partial stats on cancellation: when a traversal is abandoned mid-walk,
// every variant returns the context's error together with a non-nil result
// whose Stats field reports the QueryStats accumulated before the
// abandonment (the answer fields themselves are incomplete and must not be
// interpreted). Validation failures — bad weights, bad k, ErrBeyondTau —
// still return a nil result: no traversal ran, so there are no stats.

// querySpan bundles the per-query tracing state. With no tracer attached
// (the default) and an untraced context, starting and finishing it performs
// one atomic load, one context lookup and two nil checks and allocates
// nothing.
type querySpan struct {
	tr Tracer
	sp obs.Span
	wf uint64 // witness fast-path counter baseline
}

// startQuerySpan begins the traversal span for one query. The span joins the
// request trace carried in ctx when there is one (parented under the
// caller's span, delivered to the context's tracer when the index has none
// of its own — this covers follower index swaps, which never see
// SetTracer); otherwise it behaves like the pre-tracing span: a standalone
// span to the index tracer, or nothing at all.
func (ix *Index) startQuerySpan(ctx context.Context, name string) querySpan {
	q := querySpan{tr: ix.loadTracer()}
	sc, traced := obs.SpanContextFrom(ctx)
	if q.tr == nil && traced {
		q.tr = sc.Tracer
	}
	if q.tr == nil {
		return q
	}
	if traced {
		q.sp = obs.StartSpanIn(sc, name)
	} else {
		q.sp = obs.StartSpan(name)
	}
	s, e, c := geom.WitnessStats()
	q.wf = s + e + c
	return q
}

// finish stamps traversal stats onto the span and delivers it. The
// witnessFastPaths attribute is the delta of the process-wide fast-path
// counters over the query, so under concurrent queries it is an
// approximation that attributes overlapping work to whichever span closes.
func (q *querySpan) finish(st QueryStats, err error) {
	if q.tr == nil {
		return
	}
	s, e, c := geom.WitnessStats()
	q.sp.Err = err
	q.sp.Set("visitedCells", float64(st.VisitedCells))
	q.sp.Set("lpCalls", float64(st.LPCalls))
	q.sp.Set("witnessFastPaths", float64(s+e+c-q.wf))
	q.sp.FinishTo(q.tr)
}

var errBadK = errors.New("tlevelindex: k must be >= 1")

// checkK validates a query depth: 1 ≤ k ≤ τ.
func (v *version) checkK(k int) error {
	if k < 1 {
		return errBadK
	}
	if k > v.inner.Tau {
		return ErrBeyondTau
	}
	return nil
}

// checkFocal validates the parameters of the focal-option families (kSPR,
// the three queries built on it, and why-not).
func (v *version) checkFocal(k, focal int) error {
	if err := v.checkK(k); err != nil {
		return err
	}
	if focal < 0 {
		return fmt.Errorf("tlevelindex: invalid focal option %d", focal)
	}
	return nil
}

// TopKResult carries a ranked retrieval answer together with its traversal
// statistics.
type TopKResult struct {
	// Options are the k best dataset indices in rank order.
	Options []int
	// Key is the identity of the cell chain the walk descended, one cell per
	// option; weight vectors with equal keys have equal answers (see CellKey).
	Key   CellKey
	Stats QueryStats
}

// TopKContext is TopK with cancellation; it also exports QueryStats, which
// the plain TopK does not.
//
// On cancellation it returns ctx's error together with a non-nil result
// carrying the partial QueryStats and the ranks resolved before the
// abandonment.
func (ix *Index) TopKContext(ctx context.Context, w []float64, k int) (*TopKResult, error) {
	return ix.topK(ctx, w, k)
}

func (ix *Index) topK(ctx context.Context, w []float64, k int) (*TopKResult, error) {
	v := ix.cur.Load()
	if err := v.checkK(k); err != nil {
		return nil, err
	}
	x, err := v.reduce(w)
	if err != nil {
		return nil, err
	}
	q := ix.startQuerySpan(ctx, "query.topk")
	// The walk's ranks only live until origIDs maps them: on the stack for
	// the k of most queries.
	var ranks [16]int32
	h, _, opts, st, err := v.inner.LocateTopK(ctx, x, k, ranks[:0])
	q.finish(exportStats(st), err)
	return &TopKResult{Options: v.origIDs(opts), Key: CellKey{h: h}, Stats: exportStats(st)}, err
}

// KSPRContext is KSPR with cancellation. The lookup polls ctx once, before
// it reads; on cancellation it returns ctx's error together with a non-nil,
// empty result.
func (ix *Index) KSPRContext(ctx context.Context, k, focal int) (*KSPRResult, error) {
	return ix.kspr(ctx, k, focal)
}

func (ix *Index) kspr(ctx context.Context, k, focal int) (*KSPRResult, error) {
	v := ix.cur.Load()
	if err := v.checkFocal(k, focal); err != nil {
		return nil, err
	}
	fid := v.filteredID(focal)
	if fid < 0 {
		return &KSPRResult{}, nil
	}
	q := ix.startQuerySpan(ctx, "query.kspr")
	res, err := v.inner.KSPRCtx(ctx, k, fid)
	q.finish(exportStats(res.Stats), err)
	out := &KSPRResult{Stats: exportStats(res.Stats)}
	if err != nil {
		return out, err
	}
	if n := len(res.Cells); n > 0 { // none stays nil: "regions":null on the wire
		out.Regions = make([]Region, n)
	}
	for i, id := range res.Cells {
		out.Regions[i] = exportRegion(v.inner.RowsInto(id))
	}
	return out, nil
}

// UTKContext is UTK with cancellation. On cancellation it returns ctx's
// error together with a non-nil result whose Stats carry the traversal work
// done before the abandonment.
func (ix *Index) UTKContext(ctx context.Context, k int, lo, hi []float64) (*UTKResult, error) {
	return ix.utk(ctx, k, lo, hi)
}

func (ix *Index) utk(ctx context.Context, k int, lo, hi []float64) (*UTKResult, error) {
	v := ix.cur.Load()
	if err := v.checkK(k); err != nil {
		return nil, err
	}
	if len(lo) != v.inner.RDim() || len(hi) != v.inner.RDim() {
		return nil, fmt.Errorf("tlevelindex: query box must have %d reduced coordinates", v.inner.RDim())
	}
	for i := range lo {
		// Every comparison with NaN is false, so a NaN coordinate would pass
		// the order check below and meet every cell; ±Inf has no place in
		// the simplex either.
		if math.IsNaN(lo[i]) || math.IsNaN(hi[i]) || math.IsInf(lo[i], 0) || math.IsInf(hi[i], 0) {
			return nil, errors.New("tlevelindex: box has a non-finite coordinate")
		}
		if lo[i] > hi[i] {
			return nil, errors.New("tlevelindex: box lo exceeds hi")
		}
	}
	q := ix.startQuerySpan(ctx, "query.utk")
	res, err := v.inner.UTKCtx(ctx, k, geom.NewBox(lo, hi))
	q.finish(exportStats(res.Stats), err)
	out := &UTKResult{Stats: exportStats(res.Stats)}
	if err != nil {
		return out, err
	}
	out.Options = v.origIDs(res.Options)
	if n := len(res.Partitions); n > 0 { // none stays nil: "partitions":null on the wire
		out.Partitions = make([]UTKPartition, n)
	}
	for i, p := range res.Partitions {
		part := &out.Partitions[i]
		part.Region = exportRegion(v.inner.RowsInto(p.Cell))
		part.TopK = v.origIDs(p.TopK)
	}
	return out, nil
}

// ORUContext is ORU with cancellation. On cancellation it returns ctx's
// error together with a non-nil result carrying the partial QueryStats and
// the options collected so far.
func (ix *Index) ORUContext(ctx context.Context, k int, w []float64, m int) (*ORUResult, error) {
	return ix.oru(ctx, k, w, m)
}

func (ix *Index) oru(ctx context.Context, k int, w []float64, m int) (*ORUResult, error) {
	v := ix.cur.Load()
	if k < 1 || m < 1 {
		return nil, errors.New("tlevelindex: k and m must be >= 1")
	}
	if err := v.checkK(k); err != nil {
		return nil, err
	}
	x, err := v.reduce(w)
	if err != nil {
		return nil, err
	}
	q := ix.startQuerySpan(ctx, "query.oru")
	res, err := v.inner.ORUCtx(ctx, k, x, m)
	q.finish(exportStats(res.Stats), err)
	return &ORUResult{Options: v.origIDs(res.Options), Rho: res.Rho, Stats: exportStats(res.Stats)}, err
}

// MaxRankResult carries a best-achievable-rank answer together with its
// traversal statistics.
type MaxRankResult struct {
	// Rank is the option's best rank anywhere in preference space, or -1
	// when the option never ranks within τ.
	Rank  int
	Stats QueryStats
}

// MaxRankContext is MaxRank with cancellation; it also exports QueryStats,
// which the plain MaxRank does not. The lookup polls ctx once, before it
// reads; on cancellation it returns ctx's error together with a non-nil
// result with zero stats (Rank is meaningless then).
func (ix *Index) MaxRankContext(ctx context.Context, opt int) (*MaxRankResult, error) {
	v := ix.cur.Load()
	if opt < 0 {
		return nil, fmt.Errorf("tlevelindex: invalid option %d", opt)
	}
	fid := v.filteredID(opt)
	if fid < 0 {
		return &MaxRankResult{Rank: -1}, nil
	}
	q := ix.startQuerySpan(ctx, "query.maxrank")
	rank, st, err := v.inner.MaxRankCtx(ctx, fid)
	q.finish(exportStats(st), err)
	return &MaxRankResult{Rank: rank, Stats: exportStats(st)}, err
}

// MonoRTopKResult carries a monochromatic reverse top-k answer together
// with its traversal statistics.
type MonoRTopKResult struct {
	// Intervals are the maximal segments of the first weight in which the
	// focal option ranks top-k (merged, ascending).
	Intervals []Interval
	Stats     QueryStats
}

// MonoRTopKContext is MonoRTopK with cancellation; it also exports
// QueryStats, which the plain MonoRTopK does not. On cancellation it returns
// ctx's error together with a non-nil result whose Stats carry the
// traversal work done before the abandonment (Intervals is left empty).
func (ix *Index) MonoRTopKContext(ctx context.Context, k, focal int) (*MonoRTopKResult, error) {
	return ix.monoRTopK(ctx, k, focal)
}

func (ix *Index) monoRTopK(ctx context.Context, k, focal int) (*MonoRTopKResult, error) {
	v := ix.cur.Load()
	if v.inner.Dim != 2 {
		return nil, errors.New("tlevelindex: MonoRTopK requires 2-attribute options")
	}
	if err := v.checkFocal(k, focal); err != nil {
		return nil, err
	}
	fid := v.filteredID(focal)
	if fid < 0 {
		return &MonoRTopKResult{}, nil
	}
	q := ix.startQuerySpan(ctx, "query.monortopk")
	segs, st, err := v.inner.MonoRTopKCtx(ctx, k, fid)
	q.finish(exportStats(st), err)
	out := &MonoRTopKResult{Stats: exportStats(st)}
	if err != nil {
		return out, err
	}
	for _, s := range segs {
		out.Intervals = append(out.Intervals, Interval{Lo: s.Lo, Hi: s.Hi})
	}
	return out, nil
}

// MarketShareResult carries a preference-space market-share estimate
// together with the statistics of its underlying kSPR traversal.
type MarketShareResult struct {
	// Share is the fraction of preference space (by volume) in which the
	// focal option ranks top-k, in [0, 1].
	Share float64
	Stats QueryStats
}

// MarketShareContext is MarketShare with cancellation; it also exports
// QueryStats, which the plain MarketShare does not. Cancellation is polled
// during the kSPR traversal and between the per-cell volume integrations;
// on abandonment it returns ctx's error together with a non-nil result
// whose Stats carry the work done so far (Share is meaningless then).
func (ix *Index) MarketShareContext(ctx context.Context, focal, k int) (*MarketShareResult, error) {
	return ix.marketShare(ctx, focal, k)
}

func (ix *Index) marketShare(ctx context.Context, focal, k int) (*MarketShareResult, error) {
	v := ix.cur.Load()
	if err := v.checkFocal(k, focal); err != nil {
		return nil, err
	}
	fid := v.filteredID(focal)
	if fid < 0 {
		return &MarketShareResult{}, nil
	}
	q := ix.startQuerySpan(ctx, "query.marketshare")
	res, err := v.inner.KSPRCtx(ctx, k, fid)
	out := &MarketShareResult{Stats: exportStats(res.Stats)}
	if err != nil {
		q.finish(out.Stats, err)
		return out, err
	}
	rng := rand.New(rand.NewSource(1))
	total := 0.0
	for _, id := range res.Cells {
		if err := ctx.Err(); err != nil {
			q.finish(out.Stats, err)
			return out, err
		}
		total += v.inner.Region(id).Volume(20000, rng.Float64)
	}
	share := total / geom.SimplexVolume(v.inner.RDim())
	if share > 1 {
		share = 1 // Monte-Carlo noise can overshoot marginally
	}
	out.Share = share
	q.finish(out.Stats, nil)
	return out, nil
}

// ReverseTopKResult carries a bichromatic reverse top-k answer together with
// the statistics of its underlying kSPR traversal.
type ReverseTopKResult struct {
	// Users are the indices of the users whose top-k contains the focal
	// option, in input order.
	Users []int
	Stats QueryStats
}

// ReverseTopKContext is ReverseTopK with cancellation; it also exports
// QueryStats, which the plain ReverseTopK does not. Cancellation is polled
// during the kSPR traversal and between user membership tests; on
// abandonment it returns ctx's error together with a non-nil result whose
// Stats carry the work done so far and whose Users hold the matches found
// up to that point (incomplete).
func (ix *Index) ReverseTopKContext(ctx context.Context, k, focal int, users [][]float64) (*ReverseTopKResult, error) {
	return ix.reverseTopK(ctx, k, focal, users)
}

func (ix *Index) reverseTopK(ctx context.Context, k, focal int, users [][]float64) (*ReverseTopKResult, error) {
	v := ix.cur.Load()
	if err := v.checkFocal(k, focal); err != nil {
		return nil, err
	}
	// Validate the whole population up front: a malformed user is an input
	// error, never a partial result.
	xs := make([][]float64, len(users))
	for ui, w := range users {
		x, err := v.reduce(w)
		if err != nil {
			return nil, fmt.Errorf("tlevelindex: user %d: %w", ui, err)
		}
		xs[ui] = x
	}
	fid := v.filteredID(focal)
	if fid < 0 {
		return &ReverseTopKResult{}, nil
	}
	q := ix.startQuerySpan(ctx, "query.reversetopk")
	res, err := v.inner.KSPRCtx(ctx, k, fid)
	out := &ReverseTopKResult{Stats: exportStats(res.Stats)}
	if err != nil {
		q.finish(out.Stats, err)
		return out, err
	}
	regions := make([]*geom.Region, len(res.Cells))
	for i, id := range res.Cells {
		regions[i] = v.inner.Region(id)
	}
	for ui, x := range xs {
		if err := ctx.Err(); err != nil {
			q.finish(out.Stats, err)
			return out, err
		}
		for _, r := range regions {
			if r.ContainsPoint(x, 1e-9) {
				out.Users = append(out.Users, ui)
				break
			}
		}
	}
	q.finish(out.Stats, nil)
	return out, nil
}

// WhyNotContext is WhyNot with cancellation. On cancellation it returns
// ctx's error together with a non-nil result whose Stats carry the work done
// before the abandonment.
func (ix *Index) WhyNotContext(ctx context.Context, opt int, w []float64, k int) (*WhyNotResult, error) {
	return ix.whyNot(ctx, opt, w, k)
}

func (ix *Index) whyNot(ctx context.Context, opt int, w []float64, k int) (*WhyNotResult, error) {
	v := ix.cur.Load()
	if err := v.checkFocal(k, opt); err != nil {
		return nil, err
	}
	x, err := v.reduce(w)
	if err != nil {
		return nil, err
	}
	fid := v.filteredID(opt)
	if fid < 0 {
		return &WhyNotResult{Rank: -1, MinShift: -1}, nil
	}
	q := ix.startQuerySpan(ctx, "query.whynot")
	res, err := v.inner.WhyNotCtx(ctx, fid, x, k)
	q.finish(exportStats(res.Stats), err)
	out := &WhyNotResult{Rank: res.RankAtW, InTopK: res.InTopK, MinShift: res.NearestDist,
		Stats: exportStats(res.Stats)}
	if res.NearestPoint != nil {
		out.SuggestedW = geom.Lift(res.NearestPoint)
	}
	return out, err
}
