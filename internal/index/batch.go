package index

import (
	"context"
	"math"

	"tlevelindex/internal/geom"
	"tlevelindex/internal/pool"
)

// Batched query execution. A batch of preference vectors descends the DAG
// level-synchronously through one shared frontier: the batch is kept grouped
// by current cell, so each cell's child list is fetched once per batch and
// each candidate option's coefficients are strength-reduced once per group
// before being streamed over the group's contiguous reduced coordinates
// (geom.ScoreArgMax). Queries that collapse into the same cells — the common
// case under clustered preference traffic — share almost all of the work;
// fully scattered batches degrade gracefully to per-item cost.
//
// Grouping never needs a comparison sort: the root level is one group, and
// each level's grouping is refined by a stable counting sort of every group
// over the child each member chose. Two groups that pick the same (shared)
// child stay separate runs, which costs one redundant child-list fetch and
// nothing else.
//
// Every per-item observable — answer, rank order, QueryStats, chain key —
// is bit-identical to running the single-query TopKCtx/Locate per item: the
// kernels accumulate scores in Score's association order, candidates are
// scanned in child order with the same strict > first-max tie-breaking, and
// VisitedCells counts every child scanned per level exactly as TopKCtx does.

// BatchTopK is the per-item answer set of a batched top-k / locate walk.
// Slices are indexed by the item's position in the input batch.
type BatchTopK struct {
	// Outs holds each item's ranked options (filtered ids); nil when the
	// walk was run in locate-only mode.
	Outs [][]int32
	// Keys holds each item's chain key (see locate.go); nil unless
	// requested. Items that followed the same cell chain have equal keys.
	Keys []uint64
	// Levels is the depth each item actually reached (== len(Outs[i]) when
	// options were collected); it falls short of k when a walk ran out of
	// children early.
	Levels []int
	// Stats are per-item traversal stats, element-wise identical to the
	// single-query path.
	Stats []QueryStats
}

// batchScratch is the pooled working memory of a batch walk.
type batchScratch struct {
	perm   []int32     // items in run order (mutated in place on splits)
	sperm  []int32     // split-scatter staging for perm subranges
	xs     []float64   // reduced coordinates in perm order
	sxs    []float64   // split-scatter staging for xs subranges
	best   []float64   // per-member best score within the current run
	bestCh []int32     // per-member chosen child index within the run
	counts []int32     // counting-sort histogram over a run's children
	offs   []int32     // counting-sort write offsets
	chMax  []float64   // per-child score upper bound over the run box
	chR    [][]float64 // per-child coefficient rows, cached per parent cell
	stk    []runFrame  // pending runs (LIFO)
	chain  []int32     // option chosen at each rank along the current DFS path
	keyAt  []uint64    // chain key after each rank along the current path
	visAt  []int32     // visited-cells tally after each rank
	boxLo  []float64   // run bounding box
	boxHi  []float64
	bkt    []int32 // spatial pre-sort histogram
}

// runFrame is one pending run: the items at perm[pos:end], all inside
// `cell` (a rank-lvl cell), waiting to descend. Frames are processed LIFO,
// which keeps the shared per-depth path arrays (chain/keyAt/visAt)
// consistent: a frame only ever reads entries at depths below its own, and
// those are exactly the ones its ancestors wrote and no sibling subtree
// can touch.
type runFrame struct {
	pos, end int32
	cell     int32
	lvl      int32
}

var batchScratchPool = pool.NewScratch(func() *batchScratch { return &batchScratch{} })

// pruneSlack is the safety margin of the box-bound candidate pruning: a
// candidate is dropped only when its score bound loses by more than this.
// Scores of [0,1]-scaled data carry rounding noise around 1e-16, so 1e-9
// makes the strict-loss proof immune to it while pruning essentially as
// aggressively as an exact test would.
const pruneSlack = 1e-9

// batchRunCap bounds how many items one kernel call covers. The batch is
// cut into runs of at most this many spatially-adjacent items, and splits
// only ever shrink runs: a capped run covers one neighborhood, so its
// bounding box stays tight enough for candidate pruning to bite even at
// the root, where the whole batch shares a cell.
const batchRunCap = 16

func (bs *batchScratch) grow(n, dim, k int) {
	if cap(bs.perm) < n {
		bs.perm = make([]int32, n)
		bs.sperm = make([]int32, n)
		bs.best = make([]float64, n)
		bs.bestCh = make([]int32, n)
		bs.stk = make([]runFrame, 0, n)
	}
	if cap(bs.xs) < n*dim {
		bs.xs = make([]float64, n*dim)
		bs.sxs = make([]float64, n*dim)
	}
	if cap(bs.chain) < k {
		bs.chain = make([]int32, k)
		bs.keyAt = make([]uint64, k+1)
		bs.visAt = make([]int32, k+1)
	}
	if cap(bs.boxLo) < dim {
		bs.boxLo = make([]float64, dim)
		bs.boxHi = make([]float64, dim)
	}
}

func (bs *batchScratch) growChildren(nc int) {
	if cap(bs.counts) < nc {
		bs.counts = make([]int32, nc)
		bs.offs = make([]int32, nc)
		bs.chMax = make([]float64, nc)
	}
}

// TopKBatchCtx answers a top-k point query for every reduced weight in xs
// through one shared traversal. Results, rank orders, and QueryStats are
// element-wise identical to calling TopKCtx per item; with wantKeys the
// per-item chain keys match Locate at depth k. On cancellation it returns
// the context's error together with the partial per-item answers and stats
// accumulated up to the abandonment.
func (ix *Index) TopKBatchCtx(ctx context.Context, xs [][]float64, k int, wantKeys bool) (*BatchTopK, error) {
	dim := ix.RDim()
	flat := make([]float64, 0, len(xs)*dim)
	for _, x := range xs {
		flat = append(flat, x[:dim]...)
	}
	return ix.TopKBatchFlatCtx(ctx, flat, len(xs), k, wantKeys)
}

// TopKBatchFlatCtx is TopKBatchCtx over pre-flattened row-major reduced
// coordinates (n×RDim): the allocation-minimal entry point used by the
// public batch API and the serve layer.
func (ix *Index) TopKBatchFlatCtx(ctx context.Context, xflat []float64, n, k int, wantKeys bool) (*BatchTopK, error) {
	if k < 0 {
		k = 0
	}
	bt := &BatchTopK{
		Outs:   make([][]int32, n),
		Levels: make([]int, n),
		Stats:  make([]QueryStats, n),
	}
	backing := make([]int32, n*k)
	if wantKeys {
		bt.Keys = make([]uint64, n)
	}
	err := ix.TopKBatchInto(ctx, xflat, n, k, wantKeys, backing, bt)
	// The walk writes answers rank-indexed into the flat backing; the
	// per-item headers are cut once here (also on cancellation, where
	// Levels[i] holds the depth item i actually reached).
	for i := range bt.Outs {
		bt.Outs[i] = backing[i*k : i*k+bt.Levels[i] : (i+1)*k]
	}
	return bt, err
}

// TopKBatchInto is the allocation-free batch entry for steady-state
// servers: the caller owns and reuses the result arrays across batches.
// bt.Levels and bt.Stats must hold n elements (bt.Keys too when wantKeys);
// outFlat must hold n*k and receives item i's rank-l option at i*k+l−1
// (item i answered bt.Levels[i] ranks). bt.Outs is neither read nor
// written; pass outFlat == nil for locate-only walks.
func (ix *Index) TopKBatchInto(ctx context.Context, xflat []float64, n, k int, wantKeys bool, outFlat []int32, bt *BatchTopK) error {
	if k < 0 {
		k = 0
	}
	if k > ix.Tau {
		ix.ensureLevels(k)
	}
	clear(bt.Levels[:n])
	clear(bt.Stats[:n])
	return ix.topKBatchWalk(ctx, xflat, dimChecked(ix, xflat, n), n, k, wantKeys, outFlat, bt)
}

// dimChecked returns the reduced dimension after validating the flat buffer
// length, so a malformed caller fails loudly instead of reading stale data.
func dimChecked(ix *Index, xflat []float64, n int) int {
	dim := ix.RDim()
	if len(xflat) != n*dim {
		panic("index: batch coordinate buffer has wrong length")
	}
	return dim
}

// LocateBatch computes the chain key and reached level for every reduced
// weight in xs at depth k (clamped to the materialized levels — like
// Locate, it never extends). Keys and levels are element-wise identical to
// calling Locate per item.
func (ix *Index) LocateBatch(xs [][]float64, k int) (keys []uint64, levels []int) {
	if max := ix.MaxMaterializedLevel(); k > max {
		k = max
	}
	dim := ix.RDim()
	n := len(xs)
	flat := make([]float64, 0, n*dim)
	for _, x := range xs {
		flat = append(flat, x[:dim]...)
	}
	bt := &BatchTopK{
		Keys:   make([]uint64, n),
		Levels: make([]int, n),
		Stats:  make([]QueryStats, n),
	}
	// Background context: the walk is bounded by k levels and cannot hang.
	_ = ix.topKBatchWalk(context.Background(), flat, dim, n, k, true, nil, bt)
	return bt.Keys, bt.Levels
}

// topKBatchWalk is the shared-frontier descent. bt's slices must be sized
// for n items. Answers are written rank-indexed into outFlat (item i's
// rank-l option lands at i*k+l−1); outFlat == nil runs locate-only.
func (ix *Index) topKBatchWalk(ctx context.Context, xflat []float64, dim, n, k int, wantKeys bool, outFlat []int32, bt *BatchTopK) error {
	if n == 0 {
		return nil
	}
	if k <= 0 {
		// Depth 0 (or a negative depth clamped to it — Locate treats k < 1 as
		// "stop at the entry cell"): every item reports the empty-chain key at
		// level 0, exactly like the single-query Locate.
		if wantKeys {
			keys := bt.Keys[:n]
			for i := range keys {
				keys[i] = fnvOffset64
			}
		}
		return nil
	}
	bs := batchScratchPool.Get()
	defer batchScratchPool.Put(bs)
	bs.grow(n, dim, k)
	perm := bs.perm[:n]
	xs := bs.xs[:n*dim]
	if dim <= 3 && n >= 8 {
		// Spatial pre-sort: order the batch by a coarse grid key before the
		// walk, so clustered items land in the same run with a tight
		// bounding box. The key has no effect on any per-item result, only
		// on which items share kernel calls.
		q := int32(64)
		nb := 64
		switch dim {
		case 2:
			q, nb = 8, 64
		case 3:
			q, nb = 8, 512
		}
		if cap(bs.bkt) < nb {
			bs.bkt = make([]int32, nb)
		}
		bkt := bs.bkt[:nb]
		clear(bkt)
		keys := bs.bestCh[:n] // free until the first run is scored
		if dim == 2 {
			for i := 0; i < n; i++ {
				c0 := int32(xflat[2*i] * 8)
				c1 := int32(xflat[2*i+1] * 8)
				if c0 < 0 {
					c0 = 0
				} else if c0 > 7 {
					c0 = 7
				}
				if c1 < 0 {
					c1 = 0
				} else if c1 > 7 {
					c1 = 7
				}
				kk := c0<<3 | c1
				keys[i] = kk
				bkt[kk]++
			}
		} else {
			for i := 0; i < n; i++ {
				kk := int32(0)
				for j := 0; j < dim; j++ {
					c := int32(xflat[i*dim+j] * float64(q))
					if c < 0 {
						c = 0
					} else if c >= q {
						c = q - 1
					}
					kk = kk*q + c
				}
				keys[i] = kk
				bkt[kk]++
			}
		}
		o := int32(0)
		for b := range bkt {
			cnt := bkt[b]
			bkt[b] = o
			o += cnt
		}
		if dim == 2 {
			for i := 0; i < n; i++ {
				kk := keys[i]
				j := bkt[kk]
				bkt[kk] = j + 1
				perm[j] = int32(i)
				xs[2*j] = xflat[2*i]
				xs[2*j+1] = xflat[2*i+1]
			}
		} else {
			for i := 0; i < n; i++ {
				kk := keys[i]
				j := bkt[kk]
				bkt[kk] = j + 1
				perm[j] = int32(i)
				copy(xs[int(j)*dim:(int(j)+1)*dim], xflat[i*dim:(i+1)*dim])
			}
		}
	} else {
		for i := range perm {
			perm[i] = int32(i)
		}
		copy(xs, xflat[:n*dim])
	}
	// Per-depth path state. Everything a top-k walk reports per item — the
	// ranked options, the chain key, the visited-cells tally — is a function
	// of the cell path alone, and every member of a run walks the same path.
	// So the walk keeps ONE copy of each per depth and only fans the values
	// out to the items when a run leaves the traversal (done, dropped, or
	// cancelled). Frames are LIFO; see runFrame for why the shared arrays
	// stay consistent across siblings.
	chain := bs.chain[:k]
	keyAt := bs.keyAt[: k+1 : k+1]
	visAt := bs.visAt[: k+1 : k+1]
	keyAt[0] = fnvOffset64
	visAt[0] = 0
	root := ix.Root()
	stk := bs.stk[:0]
	for pos := n; pos > 0; { // reversed so pops run left-to-right
		start := pos - batchRunCap
		if start < 0 {
			start = 0
		}
		stk = append(stk, runFrame{int32(start), int32(pos), root, 0})
		pos = start
	}
	// Coefficient access: with the frozen CSR present (the normal case for
	// any queryable index), candidate rows come from the dense derived
	// arenas — optR by cell id for exact scoring, boundR streamed by
	// children-arena position for interval bounds. The staged fallback
	// (mid-mutation only) chases Cells/Pts pointers instead.
	fdag := ix.flat
	var optR, boundR []float64
	if fdag != nil {
		optR, boundR = fdag.optR, fdag.boundR
	}
	d := dim + 1
	st := 2*d - 1
	var cancelErr error
	for len(stk) > 0 {
		fr := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		pos, end, cell, lvl := int(fr.pos), int(fr.end), fr.cell, int(fr.lvl)
		if lvl > 0 {
			// Entering cell at rank lvl: fold the per-path bookkeeping once
			// for the whole run.
			if outFlat != nil {
				chain[lvl-1] = ix.Cells[cell].Opt
			}
			if wantKeys {
				keyAt[lvl] = fnvMix(keyAt[lvl-1], ix.cellHash(cell))
			}
		}
		// One poll per popped run: cancellation latency is bounded by one
		// run's remaining descent (at most batchRunCap items over k levels).
		// After a trip, the remaining frames drain straight to their flush,
		// so every item still reports the depth it actually reached.
		if cancelErr == nil {
			if err := ctx.Err(); err != nil {
				cancelErr = err
			}
		}
		if cancelErr != nil {
			flushRun(bt, perm, pos, end, lvl, k, wantKeys, outFlat, chain, keyAt, visAt)
			continue
		}
		boxValid := false
		for {
			if lvl == k {
				flushRun(bt, perm, pos, end, k, k, wantKeys, outFlat, chain, keyAt, visAt)
				break
			}
			var children []int32
			childBase := 0
			if fdag != nil {
				cs := &fdag.spans[cell]
				children = fdag.children[cs.childOff : cs.childOff+cs.childLen : cs.childOff+cs.childLen]
				childBase = int(cs.childOff)
			} else {
				children = ix.Cells[cell].Children
			}
			nc := len(children)
			if nc == 0 {
				// Ran out of children: the run leaves the traversal holding
				// the depth it reached.
				flushRun(bt, perm, pos, end, lvl, k, wantKeys, outFlat, chain, keyAt, visAt)
				break
			}
			bs.growChildren(nc)
			visAt[lvl+1] = visAt[lvl] + int32(nc)
			if nc == 1 {
				// An only child wins by default for every member; the box
				// (if any) stays valid because the membership is unchanged.
				cell = children[0]
				lvl++
				if outFlat != nil {
					chain[lvl-1] = ix.Cells[cell].Opt
				}
				if wantKeys {
					keyAt[lvl] = fnvMix(keyAt[lvl-1], ix.cellHash(cell))
				}
				continue
			}
			m := end - pos
			if m == 1 {
				// Singleton run: the scalar argmax scan beats the batched
				// kernel's per-child call overhead, so fully scattered
				// batches degrade to exactly the single-query cost.
				// The first child seeds the argmax so a non-finite weight
				// vector (every comparison false) still descends into a real
				// child — like Locate and the batched kernels — instead of
				// indexing with -1.
				x := xs[pos*dim : (pos+1)*dim : (pos+1)*dim]
				bestCh := children[0]
				bestScore := math.Inf(-1)
				if optR != nil {
					for _, ch := range children {
						o := int(ch) * d
						if s := geom.Score(optR[o:o+d:o+d], x); s > bestScore {
							bestCh, bestScore = ch, s
						}
					}
				} else {
					for _, ch := range children {
						if s := geom.Score(ix.Pts[ix.Cells[ch].Opt], x); s > bestScore {
							bestCh, bestScore = ch, s
						}
					}
				}
				cell = bestCh
				lvl++
				if outFlat != nil {
					chain[lvl-1] = ix.Cells[cell].Opt
				}
				if wantKeys {
					keyAt[lvl] = fnvMix(keyAt[lvl-1], ix.cellHash(cell))
				}
				continue
			}
			gxs := xs[pos*dim : end*dim]
			pruned := false
			surv2 := false
			sv0i, sv1i := 0, 0
			pruneMin := math.Inf(-1)
			lo := bs.boxLo[:dim]
			hi := bs.boxHi[:dim]
			if m >= 4 && nc >= 3 {
				// Candidate pruning over the run's bounding box: a child
				// whose maximum score anywhere in the box falls (by a safety
				// margin dwarfing float rounding) below another child's
				// minimum loses strictly for every member, so skipping its
				// per-query scores cannot change any argmax or tie-break.
				// Pruned children still count as visited — they were examined
				// via their bounds — which keeps QueryStats identical to the
				// single-query path. Tiny runs skip the bounds: scoring them
				// directly is cheaper than bounding them.
				//
				// The box is computed at most once per run: a run that
				// descends intact keeps its exact members, so the same box
				// stays valid at every further level.
				if !boxValid {
					if dim == 2 {
						lo0, lo1 := gxs[0], gxs[1]
						hi0, hi1 := lo0, lo1
						for i := 1; i < m; i++ {
							if v := gxs[2*i]; v < lo0 {
								lo0 = v
							} else if v > hi0 {
								hi0 = v
							}
							if v := gxs[2*i+1]; v < lo1 {
								lo1 = v
							} else if v > hi1 {
								hi1 = v
							}
						}
						lo[0], lo[1], hi[0], hi[1] = lo0, lo1, hi0, hi1
					} else {
						copy(lo, gxs[:dim])
						copy(hi, gxs[:dim])
						for i := 1; i < m; i++ {
							row := gxs[i*dim : (i+1)*dim]
							for j, v := range row {
								if v < lo[j] {
									lo[j] = v
								} else if v > hi[j] {
									hi[j] = v
								}
							}
						}
					}
					boxValid = true
				}
				chMax := bs.chMax[:nc]
				bestMin := math.Inf(-1)
				if boundR != nil && dim == 2 {
					lo0, lo1, hi0, hi1 := lo[0], lo[1], hi[0], hi[1]
					row := boundR[childBase*st : (childBase+nc)*st : (childBase+nc)*st]
					for ci := 0; ci < nc; ci++ {
						b, p0, p1, n0, n1 := row[0], row[1], row[2], row[3], row[4]
						row = row[5:]
						mn := b + p0*lo0 + n0*hi0 + p1*lo1 + n1*hi1
						mx := b + p0*hi0 + n0*lo0 + p1*hi1 + n1*lo1
						chMax[ci] = mx
						if mn > bestMin {
							bestMin = mn
						}
					}
				} else if boundR != nil {
					for ci := 0; ci < nc; ci++ {
						sp := boundR[(childBase+ci)*st:]
						sp = sp[:st:st]
						mn, mx := geom.ScoreRangeSplit(sp[0], sp[1:d], sp[d:st], lo, hi)
						chMax[ci] = mx
						if mn > bestMin {
							bestMin = mn
						}
					}
				} else {
					for ci := 0; ci < nc; ci++ {
						mn, mx := geom.ScoreRange(ix.Pts[ix.Cells[children[ci]].Opt], lo, hi)
						chMax[ci] = mx
						if mn > bestMin {
							bestMin = mn
						}
					}
				}
				surv, sv0, sv1 := 0, 0, 0
				cut := bestMin - pruneSlack
				for ci := range chMax {
					if chMax[ci] >= cut {
						if surv == 0 {
							sv0 = ci
						} else if surv == 1 {
							sv1 = ci
						}
						surv++
					}
				}
				if surv == 1 {
					// The whole run provably descends into one child: no
					// scoring, no regrouping, box still valid.
					cell = children[sv0]
					lvl++
					if outFlat != nil {
						chain[lvl-1] = ix.Cells[cell].Opt
					}
					if wantKeys {
						keyAt[lvl] = fnvMix(keyAt[lvl-1], ix.cellHash(cell))
					}
					continue
				}
				pruned = true
				pruneMin = cut
				if surv == 2 {
					surv2 = true
					sv0i, sv1i = sv0, sv1
				}
			}
			// The first scored candidate seeds best/arg unconditionally
			// (identical to a strict > scan over −Inf), so the buffers never
			// need a reset pass between runs.
			best := bs.best[pos:end]
			arg := bs.bestCh[pos:end]
			if optR != nil {
				if pruned {
					if surv2 {
						// The usual outcome of pruning: exactly two
						// candidates standing — one fused pass decides.
						o0 := int(children[sv0i]) * d
						o1 := int(children[sv1i]) * d
						geom.ScoreArgMaxPair(optR[o0:o0+d:o0+d], optR[o1:o1+d:o1+d], gxs, dim, best, arg, int32(sv0i), int32(sv1i))
					} else {
						chMax := bs.chMax[:nc]
						seeded := false
						for ci := 0; ci < nc; ci++ {
							if chMax[ci] < pruneMin {
								continue
							}
							o := int(children[ci]) * d
							if !seeded {
								geom.ScoreArgMaxInit(optR[o:o+d:o+d], gxs, dim, best, arg, int32(ci))
								seeded = true
							} else {
								geom.ScoreArgMax(optR[o:o+d:o+d], gxs, dim, best, arg, int32(ci))
							}
						}
					}
				} else {
					o0 := int(children[0]) * d
					o1 := int(children[1]) * d
					geom.ScoreArgMaxPair(optR[o0:o0+d:o0+d], optR[o1:o1+d:o1+d], gxs, dim, best, arg, 0, 1)
					for ci := 2; ci < nc; ci++ {
						o := int(children[ci]) * d
						geom.ScoreArgMax(optR[o:o+d:o+d], gxs, dim, best, arg, int32(ci))
					}
				}
			} else if pruned {
				chMax := bs.chMax[:nc]
				seeded := false
				for ci := 0; ci < nc; ci++ {
					if chMax[ci] < pruneMin {
						continue
					}
					r := ix.Pts[ix.Cells[children[ci]].Opt]
					if !seeded {
						geom.ScoreArgMaxInit(r, gxs, dim, best, arg, int32(ci))
						seeded = true
					} else {
						geom.ScoreArgMax(r, gxs, dim, best, arg, int32(ci))
					}
				}
			} else {
				geom.ScoreArgMaxInit(ix.Pts[ix.Cells[children[0]].Opt], gxs, dim, best, arg, 0)
				for ci := 1; ci < nc; ci++ {
					geom.ScoreArgMax(ix.Pts[ix.Cells[children[ci]].Opt], gxs, dim, best, arg, int32(ci))
				}
			}
			// Unanimous runs (everyone scored the same child highest —
			// routine under collapse even when pruning left several
			// candidates standing) descend without leaving the loop; the
			// box stays valid because the membership is unchanged.
			uni := true
			for i := 1; i < m; i++ {
				if arg[i] != arg[0] {
					uni = false
					break
				}
			}
			if uni {
				cell = children[arg[0]]
				lvl++
				if outFlat != nil {
					chain[lvl-1] = ix.Cells[cell].Opt
				}
				if wantKeys {
					keyAt[lvl] = fnvMix(keyAt[lvl-1], ix.cellHash(cell))
				}
				continue
			}
			// The run splits. Stable counting sort of the subrange by chosen
			// child (staged through sperm/sxs and copied back), then each
			// non-empty segment becomes its own pending run one level down.
			counts := bs.counts[:nc]
			for i := range counts {
				counts[i] = 0
			}
			for i := 0; i < m; i++ {
				counts[arg[i]]++
			}
			offs := bs.offs[:nc]
			o := int32(0)
			for ci := 0; ci < nc; ci++ {
				offs[ci] = o
				o += counts[ci]
			}
			sp := bs.sperm[pos:end]
			sx := bs.sxs[pos*dim : end*dim]
			for i := 0; i < m; i++ {
				ci := arg[i]
				j := offs[ci]
				offs[ci] = j + 1
				sp[j] = perm[pos+i]
				if dim == 2 {
					sx[2*j] = gxs[2*i]
					sx[2*j+1] = gxs[2*i+1]
				} else {
					copy(sx[int(j)*dim:(int(j)+1)*dim], gxs[i*dim:(i+1)*dim])
				}
			}
			copy(perm[pos:end], sp)
			copy(gxs, sx)
			off := int32(pos)
			for ci := 0; ci < nc; ci++ {
				if counts[ci] > 0 {
					stk = append(stk, runFrame{off, off + counts[ci], children[ci], int32(lvl + 1)})
					off += counts[ci]
				}
			}
			break
		}
	}
	bs.stk = stk[:0]
	return cancelErr
}

// flushRun fans the current path state out to every member of a run as it
// leaves the traversal: reached depth, visited-cells tally, chain key, and
// the ranked options accumulated along the path.
func flushRun(bt *BatchTopK, perm []int32, pos, end, depth, k int, wantKeys bool, outFlat []int32, chain []int32, keyAt []uint64, visAt []int32) {
	run := perm[pos:end]
	v := int(visAt[depth])
	for _, it := range run {
		bt.Levels[it] = depth
		bt.Stats[it].VisitedCells = v
	}
	if wantKeys {
		key := keyAt[depth]
		for _, it := range run {
			bt.Keys[it] = key
		}
	}
	if outFlat != nil {
		for _, it := range run {
			o := outFlat[int(it)*k:]
			for j := 0; j < depth; j++ {
				o[j] = chain[j]
			}
		}
	}
}

// KSPRBatchCtx answers KSPRCtx for every focal option through one scratch
// checkout, deduplicating repeated focals: a kSPR answer depends only on
// (k, focal), so duplicate entries share the same *KSPRResult pointer and
// cost nothing beyond the first. Results and stats are element-wise
// identical to calling KSPRCtx per item. On cancellation it returns the
// context's error with the partial output: completed items keep their
// results, the failing item holds its partial walk, later items are nil.
func (ix *Index) KSPRBatchCtx(ctx context.Context, k int, focals []int32) ([]*KSPRResult, error) {
	out := make([]*KSPRResult, len(focals))
	if len(focals) == 0 {
		return out, nil
	}
	if k > ix.Tau {
		ix.ensureLevels(k)
	}
	qs := getScratch(ix.RDim())
	defer putScratch(qs)
	var seen map[int32]*KSPRResult
	for i, f := range focals {
		if r, ok := seen[f]; ok {
			out[i] = r
			continue
		}
		res := &KSPRResult{}
		out[i] = res
		if err := ix.ksprWalk(ctx, k, f, qs, res); err != nil {
			return out, err
		}
		if seen == nil {
			seen = make(map[int32]*KSPRResult, len(focals))
		}
		seen[f] = res
	}
	return out, nil
}

// LocateTopK is the top-k descent: one Locate-style walk that yields the
// chain key, the reached level, the ranked options and the QueryStats. It
// never extends the index (k is clamped like Locate), so it is a pure lookup
// safe under concurrent reads; TopKCtx is this walk after extending to k.
// res is appended into out.
func (ix *Index) LocateTopK(ctx context.Context, x []float64, k int, out []int32) (key uint64, level int, res []int32, st QueryStats, err error) {
	if max := ix.MaxMaterializedLevel(); k > max {
		k = max
	}
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
