package tlevelindex

import (
	"context"
	"fmt"
)

// CellKey identifies the chain of preference-space cells a weight vector
// descends through: the index's cell identity at a fixed depth. Keys are
// opaque and comparable; two weight vectors with equal keys obtained at
// equal depth k followed the same cell chain, and therefore have the same
// top-k answer in the same rank order. The key names an answer rather than
// saving one: computing it is the same root-to-level-k walk that produces
// the answer, so a top-k query returns its key (TopKResult.Key) instead of
// looking the answer up under it. The serving tier uses keys to group
// traffic by cell in traces and its hot-cell sketch (DESIGN.md §16).
//
// Keys are stable for a given logical index content: they survive
// serialization round trips (WriteTo/ReadIndex) and ExtendTau. They are NOT stable across inserts — an insert can reshape
// cells — so a key must always be interpreted relative to an index version
// (the serving tier pairs keys with the store's applied LSN).
type CellKey struct {
	h uint64
}

// String renders the key for logs and cache introspection.
func (k CellKey) String() string { return fmt.Sprintf("cell-%016x", k.h) }

// Sum64 returns the key's 64-bit value for use as a cache-key component.
// The value is an opaque identity — compare it, do not interpret it, and do
// not persist it across index rebuilds or inserts.
func (k CellKey) Sum64() uint64 { return k.h }

// Locate returns the identity of the cell chain containing the full weight
// vector w at depth τ, along with the depth reached. Invalid weights (wrong
// dimension, negative entries, sum ≠ 1) return an error wrapping
// ErrInvalidWeights, like every other query entry point.
//
// Equal keys at equal depth imply equal ordered top-k answers for every
// k up to that depth.
func (ix *Index) Locate(w []float64) (CellKey, int, error) {
	return ix.LocateDepth(w, ix.inner.Tau)
}

// LocateDepth is Locate at an explicit depth k: the returned key identifies
// the length-min(k, τ) cell chain containing w, and the
// returned level is the depth actually reached. k < 1 returns the entry
// cell's (empty-chain) key at level 0.
func (ix *Index) LocateDepth(w []float64, k int) (CellKey, int, error) {
	x, err := ix.reduce(w)
	if err != nil {
		return CellKey{}, 0, err
	}
	h, _, level := ix.inner.Locate(x, k)
	return CellKey{h: h}, level, nil
}

// LocateTopK answers LocateDepth and TopKContext in one root-to-leaf walk:
// the key, reached level, ranked options, and traversal stats all come from
// the same descent (DESIGN.md §18). It differs from TopKContext, whose result
// carries the same key, only in clamping k to τ like Locate where
// TopKContext refuses a deeper k. The per-item observables are identical to
// calling LocateDepth and TopKContext separately. On cancellation it
// returns ctx's error with a non-nil result carrying the partial ranks and
// stats.
func (ix *Index) LocateTopK(ctx context.Context, w []float64, k int) (CellKey, int, *TopKResult, error) {
	if k < 1 {
		return CellKey{}, 0, nil, errBadK
	}
	x, err := ix.reduce(w)
	if err != nil {
		return CellKey{}, 0, nil, err
	}
	q := ix.startQuerySpan(ctx, "query.locatetopk")
	h, level, res, st, err := ix.inner.LocateTopK(ctx, x, k, make([]int32, 0, min(k, ix.inner.Tau)))
	q.finish(exportStats(st), err)
	key := CellKey{h: h}
	return key, level, &TopKResult{Options: ix.origIDs(res), Key: key, Stats: exportStats(st)}, err
}
