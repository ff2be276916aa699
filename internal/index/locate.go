package index

import "tlevelindex/internal/geom"

// Point location and cell identity. Locate descends the DAG exactly like
// TopK — at every level the child whose option scores highest at x is the
// child whose region contains x (Corollary 1) — but instead of collecting
// options it folds each visited cell's content hash into a chain key. Two
// weight vectors with equal chain keys at equal depth followed the same
// cell chain, so their top-k walks produce identical ordered answers; the
// serve layer's hot-cell sketch and its query traces name a chain by this
// key.
//
// The key must survive compact() renumbering and ExtendTau, so a
// cell's content hash is derived from stable identities only: its level
// and its option's dataset id (OrigIDs survives pool refreshes and dense
// renumbering, unlike the cell id or the filtered option id). The chain
// fold is order-sensitive, so the key encodes the full ranked chain, not
// just the final cell.

// FNV-1a constants (64-bit).
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// fnvMix folds one 64-bit word into an FNV-1a hash byte by byte.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// cellHash returns the cell's content hash: stable across compact() and
// ExtendTau because it reads only the level and the option's dataset id.
// The entry cell hashes on its level alone.
func (ix *Index) cellHash(id int32) uint64 {
	c := &ix.Cells[id]
	h := fnvMix(fnvOffset64, uint64(c.Level))
	if c.Opt != NoOption {
		// +1 keeps the (transient) -1 of a mid-insert option distinct from
		// dataset id 0 without relying on two's-complement width.
		h = fnvMix(h, uint64(int64(ix.OrigIDs[c.Opt])+1))
	}
	return h
}

// Locate walks the cell containing the reduced weight x down to depth k
// (clamped to τ) and returns the chain key, the final cell id, and the
// level actually reached. It is a pure lookup: no allocation, no mutation,
// safe for any number of concurrent callers.
//
// The level falls short of (clamped) k only when the walk runs out of
// children early; callers caching on the key must check level == k before
// trusting the key at depth k.
func (ix *Index) Locate(x []float64, k int) (key uint64, cell int32, level int) {
	k = min(k, ix.Tau)
	cur := ix.Root()
	key = fnvOffset64
	for level < k {
		children := ix.childrenOf(cur)
		if len(children) == 0 {
			break
		}
		best := children[0]
		bestScore := geom.Score(ix.Pts[ix.Cells[best].Opt], x)
		for _, ch := range children[1:] {
			if s := geom.Score(ix.Pts[ix.Cells[ch].Opt], x); s > bestScore {
				best, bestScore = ch, s
			}
		}
		cur = best
		level++
		key = fnvMix(key, ix.cellHash(cur))
	}
	return key, cur, level
}
