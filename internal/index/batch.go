package index

import (
	"context"
	"math"

	"tlevelindex/internal/geom"
)

// Batched query execution is a loop of single queries under one call:
// TopKBatchCtx runs LocateTopK per item, LocateBatch runs Locate per item and
// KSPRBatchCtx runs KSPRCtx per item, so every per-item observable — answer,
// rank order, QueryStats, chain key, reached level — is the single-query
// path's by construction. A batch buys
// its caller one call (one lock decision, one round trip, per-item errors),
// not a cheaper traversal (DESIGN.md §18).

// BatchTopK is the per-item answer set of a batched top-k walk. Slices are
// indexed by the item's position in the input batch.
type BatchTopK struct {
	// Outs holds each item's ranked options (filtered ids), windows of one
	// n×k slab.
	Outs [][]int32
	// Keys holds each item's chain key (see locate.go); nil unless
	// requested. Items that followed the same cell chain have equal keys.
	Keys []uint64
	// Levels is the depth each item actually reached (== len(Outs[i])); it
	// falls short of k when a walk ran out of children early.
	Levels []int
	// Stats are per-item traversal stats, the single-query path's.
	Stats []QueryStats
}

// TopKBatchCtx answers a top-k point query for every reduced weight in xs.
// Results, rank orders, and QueryStats are element-wise identical to calling
// TopKCtx per item; with wantKeys the per-item chain keys match Locate at
// depth k. On cancellation it returns the context's error with the items
// walked so far: items before the tripping one hold their full answers, the
// tripping item the ranks it resolved, and later items are left zero (Level
// 0, no options, zero stats).
func (ix *Index) TopKBatchCtx(ctx context.Context, xs [][]float64, k int, wantKeys bool) (*BatchTopK, error) {
	if k > ix.Tau {
		return nil, ErrBeyondTau
	}
	k = max(k, 0)
	n := len(xs)
	bt := &BatchTopK{
		Outs:   make([][]int32, n),
		Levels: make([]int, n),
		Stats:  make([]QueryStats, n),
	}
	if wantKeys {
		bt.Keys = make([]uint64, n)
	}
	slab := make([]int32, n*k)
	for i, x := range xs {
		key, level, out, st, err := ix.LocateTopK(ctx, x, k, slab[i*k:i*k:(i+1)*k])
		bt.Outs[i], bt.Levels[i], bt.Stats[i] = out, level, st
		if wantKeys {
			bt.Keys[i] = key
		}
		if err != nil {
			return bt, err
		}
	}
	return bt, nil
}

// LocateBatch computes the chain key and reached level for every reduced
// weight in xs at depth k: Locate per item, so k is clamped to τ.
func (ix *Index) LocateBatch(xs [][]float64, k int) (keys []uint64, levels []int) {
	keys = make([]uint64, len(xs))
	levels = make([]int, len(xs))
	for i, x := range xs {
		keys[i], _, levels[i] = ix.Locate(x, k)
	}
	return keys, levels
}

// KSPRBatchCtx answers KSPRCtx for every focal option, in order. On
// cancellation it returns the context's error with the items answered so
// far; the item that saw the cancellation holds an empty result, and later
// items are nil.
func (ix *Index) KSPRBatchCtx(ctx context.Context, k int, focals []int32) ([]*KSPRResult, error) {
	out := make([]*KSPRResult, len(focals))
	for i, f := range focals {
		res, err := ix.KSPRCtx(ctx, k, f)
		out[i] = res
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// LocateTopK is the top-k descent: one Locate-style walk that yields the
// chain key, the reached level, the ranked options and the QueryStats, with
// k clamped to τ like Locate; TopKCtx is this walk after refusing k > τ.
// res is appended into out.
func (ix *Index) LocateTopK(ctx context.Context, x []float64, k int, out []int32) (key uint64, level int, res []int32, st QueryStats, err error) {
	k = min(k, ix.Tau)
	cur := ix.Root()
	key = fnvOffset64
	res = out[:0]
	for level < k {
		children := ix.childrenOf(cur)
		if len(children) == 0 {
			break
		}
		// First-child seed: a non-finite weight vector scores NaN everywhere,
		// leaving every comparison false; seeding with a real child keeps the
		// walk in the DAG (descending like Locate does) instead of stepping
		// to cell -1.
		best := children[0]
		bestScore := math.Inf(-1)
		for _, ch := range children {
			st.VisitedCells++
			if err = checkCtx(ctx, st.VisitedCells); err != nil {
				return key, level, res, st, err
			}
			if s := geom.Score(ix.Pts[ix.Cells[ch].Opt], x); s > bestScore {
				best, bestScore = ch, s
			}
		}
		cur = best
		level++
		res = append(res, ix.Cells[cur].Opt)
		key = fnvMix(key, ix.cellHash(cur))
	}
	return key, level, res, st, nil
}
