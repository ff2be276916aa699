package tlevelindex

import (
	"context"
	"fmt"
)

// Batched query entry points. A batch answers many queries in one call —
// one lock decision for a serving tier, one round trip, per-item errors —
// by running the single-query walk per item (see DESIGN.md §18), so every
// per-item observable (options, rank order, stats, chain key, reached
// level) is the corresponding single-query method's. It is not a faster
// traversal: per item it costs what the single query does.
//
// Input validation is two-tier: conditions that apply to the whole batch
// (k outside [1, τ]) fail the call, while a malformed weight vector
// fails only its own item — its Err field wraps ErrInvalidWeights and the
// remaining items are answered normally.

// TopKBatchItem is one item's answer within a TopKBatch result.
type TopKBatchItem struct {
	// Options are the item's best dataset indices in rank order (Level of
	// them; fewer than k only when the walk ran out of cells early).
	Options []int
	// Key is the cell-chain identity at the reached depth; items with equal
	// Key and Level have identical ordered answers (see CellKey).
	Key CellKey
	// Level is the depth the item actually reached.
	Level int
	// Stats is the item's traversal effort, identical to the single-query
	// path's.
	Stats QueryStats
	// Err is non-nil when this item's weight vector was rejected (it wraps
	// ErrInvalidWeights); the other fields are zero then.
	Err error
}

// TopKBatch answers a top-k query for every weight vector in ws, each
// through the TopK walk. A k beyond τ fails the call with ErrBeyondTau.
func (ix *Index) TopKBatch(ws [][]float64, k int) ([]TopKBatchItem, error) {
	return ix.topKBatch(context.Background(), ws, k)
}

// TopKBatchContext is TopKBatch with cancellation (see the context.go
// conventions). Items are walked in order. On
// cancellation it returns ctx's error together with the items: those walked
// before the cancellation hold their full answers, the item being walked
// holds the ranks it resolved and its stats so far, and later items hold
// Level 0, no options and zero stats.
func (ix *Index) TopKBatchContext(ctx context.Context, ws [][]float64, k int) ([]TopKBatchItem, error) {
	return ix.topKBatch(ctx, ws, k)
}

func (ix *Index) topKBatch(ctx context.Context, ws [][]float64, k int) ([]TopKBatchItem, error) {
	v := ix.cur.Load()
	if err := v.checkK(k); err != nil {
		return nil, err
	}
	items := make([]TopKBatchItem, len(ws))
	xs, live := v.reduceBatch(ws, func(i int, err error) { items[i].Err = err })
	if len(live) == 0 {
		return items, nil
	}
	q := ix.startQuerySpan(ctx, "query.topkbatch")
	bt, err := v.inner.TopKBatchCtx(ctx, xs, k, true)
	var agg QueryStats
	for j, i := range live {
		it := &items[i]
		it.Key = CellKey{h: bt.Keys[j]}
		it.Level = bt.Levels[j]
		it.Stats = exportStats(bt.Stats[j])
		agg.VisitedCells += it.Stats.VisitedCells
		agg.LPCalls += it.Stats.LPCalls
		it.Options = make([]int, len(bt.Outs[j]))
		for l, o := range bt.Outs[j] {
			it.Options[l] = v.inner.OrigIDs[o]
		}
	}
	q.finish(agg, err)
	return items, err
}

// KSPRBatch answers a k-shortlist preference region query for every focal
// option, each item the KSPR lookup and its own result: repeated focals get
// equal, separately allocated answers. Items whose option was filtered out
// (it never ranks top-k anywhere) get an empty result, like KSPR.
func (ix *Index) KSPRBatch(k int, focals []int) ([]*KSPRResult, error) {
	return ix.ksprBatch(context.Background(), k, focals)
}

// KSPRBatchContext is KSPRBatch with cancellation. On cancellation it
// returns ctx's error together with the items: focals answered before the
// cancellation hold complete answers, the rest empty results.
func (ix *Index) KSPRBatchContext(ctx context.Context, k int, focals []int) ([]*KSPRResult, error) {
	return ix.ksprBatch(ctx, k, focals)
}

func (ix *Index) ksprBatch(ctx context.Context, k int, focals []int) ([]*KSPRResult, error) {
	v := ix.cur.Load()
	if err := v.checkK(k); err != nil {
		return nil, err
	}
	for _, f := range focals {
		if f < 0 {
			return nil, fmt.Errorf("tlevelindex: invalid focal option %d", f)
		}
	}
	out := make([]*KSPRResult, len(focals))
	fids := make([]int32, 0, len(focals))
	live := make([]int, 0, len(focals))
	for i, f := range focals {
		fid := v.filteredID(f)
		if fid < 0 {
			out[i] = &KSPRResult{}
			continue
		}
		fids = append(fids, fid)
		live = append(live, i)
	}
	if len(live) == 0 {
		return out, nil
	}
	q := ix.startQuerySpan(ctx, "query.ksprbatch")
	res, err := v.inner.KSPRBatchCtx(ctx, k, fids)
	var agg QueryStats
	for j, i := range live {
		pub := &KSPRResult{}
		out[i] = pub
		r := res[j]
		if r == nil {
			// Cancellation stopped the internal batch before this focal was
			// reached; the item reports an empty result alongside ctx's error.
			continue
		}
		pub.Stats = exportStats(r.Stats)
		for _, id := range r.Cells {
			pub.Regions = append(pub.Regions, exportRegion(v.inner.RowsInto(id)))
		}
		agg.VisitedCells += pub.Stats.VisitedCells
		agg.LPCalls += pub.Stats.LPCalls
	}
	q.finish(agg, err)
	return out, err
}

// LocateBatchItem is one item's answer within a LocateBatch result.
type LocateBatchItem struct {
	// Key is the cell-chain identity at the reached depth; see CellKey.
	Key CellKey
	// Level is the depth actually reached: min(k, τ), or less when the
	// chain ran out of cells.
	Level int
	// Err is non-nil when this item's weight vector was rejected (it wraps
	// ErrInvalidWeights).
	Err error
}

// LocateBatch computes the cell-chain identity of every weight vector in ws
// at depth k — LocateDepth per item, so the depth is clamped to τ.
func (ix *Index) LocateBatch(ws [][]float64, k int) []LocateBatchItem {
	v := ix.cur.Load()
	items := make([]LocateBatchItem, len(ws))
	xs, live := v.reduceBatch(ws, func(i int, err error) { items[i].Err = err })
	if len(live) == 0 {
		return items
	}
	keys, levels := v.inner.LocateBatch(xs, k)
	for j, i := range live {
		items[i].Key = CellKey{h: keys[j]}
		items[i].Level = levels[j]
	}
	return items
}

// reduceBatch reduces every weight vector in ws, reporting each malformed
// one to reject: it returns the valid items' reduced vectors and their
// positions in ws.
func (v *version) reduceBatch(ws [][]float64, reject func(i int, err error)) (xs [][]float64, live []int) {
	xs = make([][]float64, 0, len(ws))
	live = make([]int, 0, len(ws))
	for i, w := range ws {
		x, err := v.reduce(w)
		if err != nil {
			reject(i, err)
			continue
		}
		xs = append(xs, x)
		live = append(live, i)
	}
	return xs, live
}
