package index

import (
	"tlevelindex/internal/dg"
	"tlevelindex/internal/geom"
)

// insertCacheBudget caps the footprint, in bytes as bytes() estimates it,
// of the insert cache an index keeps from one InsertBatch to the next. A
// cache over budget at the end of a batch is dropped and the next batch
// starts cold, exactly as every batch did before the cache outlived it. One
// Definition-2 region holds a halfspace per pool option, so the resident
// cost is cells × options × 70–140 bytes, stepping up by almost 2× each time
// the options outgrow the regions' slices (at ~300 elements Go's append
// adds ~90 %). At n=8000 that is 2 MB for d=2, τ=6 (205 cells), 88 MB for
// d=3, τ=6 (3.7k cells), 264 MB for d=3, τ=9 (11k cells, 297 options) right
// after a build and 505 MB twenty inserts later, and 452 MB for d=4, τ=4
// (8.5k cells, 430 options): all kept. The budget is what stops a larger
// index from pinning memory without bound for the sake of its next insert.
// A variable only so that tests can force the over-budget path.
var insertCacheBudget int64 = 1 << 30

// insertCache is the writer-owned reuse state that makes an accepted insert
// cheaper than re-deriving every cell's geometry from nothing. It exploits
// two monotonicity facts that hold for as long as options are only ever
// appended:
//
//  1. A cell's Definition-2 region only gains halfspaces as records arrive,
//     and gains them in option-index order — so a cached region advances to
//     the current universe by appending, producing a constraint list (and
//     hash) bit-identical to a fresh rebuild instead of paying the
//     O(options) reassembly every record.
//
//  2. Regions only shrink. A parent-intersection test that failed can never
//     start passing while both result sets are unchanged, so failed pairs
//     are skipped outright; a test that passed re-verifies in O(d) by
//     evaluating its cached Chebyshev witness against only the halfspaces
//     appended since — the full LP reruns only when the witness is cut off.
//
// Everything cached here is a pure shortcut: every decision it feeds
// (classification, parenthood, tombstoning) is provably the one an insert
// into a freshly loaded index would make, which is what keeps the index
// byte-identical however the same options are batched.
//
// The cache belongs to the Index and survives from batch to batch:
// compact() renumbers cells and hands its remap to remap(), which moves
// every entry to its cell's new id and releases those of tombstoned cells.
// It is never serialized (a loaded index starts cold), ExtendTau drops it,
// and InsertBatch keeps it only while bytes() is within insertCacheBudget.
// The per-record scratch of the insertion machinery lives here too, so that
// a warm insert allocates next to nothing.
type insertCache struct {
	// cells is indexed by cell id and grown as cells are created. Entries at
	// or past the live prefix hold recycled regions and no identity.
	cells []cellCache
	// st is the traversal state, reused record after record.
	st ibaState
	// verdicts memoizes the traversal's classification and feasibility LPs
	// for one record: the keys name the new option (or a region containing
	// it), so no later record can hit them.
	verdicts *dg.VerdictCache

	// Fix-up scratch: groups[g] lists, ascending, the cells sharing one
	// result set; byKey maps a set key to its g; perLevel lists the live
	// cells by level.
	byKey    map[string]int32
	groups   [][]int32
	perLevel [][]int32
	ids      []int32 // every live cell below the root, ascending
	rbuf     []int32
	keyBuf   []byte

	// What the current batch did, for BatchStats.
	regionsReused, regionsRebuilt int
	pairLPs, pairSkips            int
}

func newInsertCache() *insertCache {
	return &insertCache{
		verdicts: dg.NewVerdictCache(),
		byKey:    make(map[string]int32),
	}
}

// beginBatch readies the cache for one InsertBatch on ix, the index that
// owns it.
func (ic *insertCache) beginBatch(ix *Index) {
	ic.st.ix, ic.st.cache, ic.st.verdicts = ix, ic, ic.verdicts
	ic.regionsReused, ic.regionsRebuilt, ic.pairLPs, ic.pairSkips = 0, 0, 0, 0
}

// cellCache is everything the cache knows about one cell.
type cellCache struct {
	// gen counts changes of the cell's result set; key is the set key of r,
	// the result sequence as of the last fix-up. Pair certificates are valid
	// only while both endpoint generations are unchanged.
	gen uint32
	key string
	r   []int32
	// def2 is the Definition-2 region the traversal classifies against, and
	// the fix-up region of a Bound-free cell. bounded is the fix-up region
	// of a Bound-carrying cell.
	def2    cachedRegion
	bounded boundedRegion
	// pairs holds the parent-intersection certificates of this cell as a
	// child, one per candidate parent it has been tested against.
	pairs []pairState

	// Fix-up scratch, valid for one record: the region the fix-up uses and
	// whether it kept its cached constraints, the cell's group in
	// insertCache.groups, and the outcome of its scan.
	reg     *geom.Region
	reused  bool
	group   int32
	parents []int32
	scan    scanResult
}

// scanResult is what one cell's parent scan decided.
type scanResult struct {
	fallback int32 // best boundary-touching parent, -1 when none
	lpCalls  int64
	pairLPs  int
	skips    int
}

// grow makes the cache cover cell ids [0, n).
func (ic *insertCache) grow(n int) {
	if n <= len(ic.cells) {
		return
	}
	if n <= cap(ic.cells) {
		ic.cells = ic.cells[:n]
		return
	}
	ic.cells = append(ic.cells, make([]cellCache, n-len(ic.cells))...)
}

// newGroup opens an empty group in groups, on the storage of the group that
// held that place in the last record when there was one.
func (ic *insertCache) newGroup() int32 {
	g := len(ic.groups)
	if g < cap(ic.groups) {
		ic.groups = ic.groups[:g+1]
		ic.groups[g] = ic.groups[g][:0]
	} else {
		ic.groups = append(ic.groups, nil)
	}
	return int32(g)
}

// remap follows a compact(): cell old is now remap[old], or gone when that
// is negative. remap is monotone, so entries move towards the front in
// place; the entries of tombstoned cells lose their identity (generation,
// key, certificates, the sequences their regions were built from) and keep
// only their regions' storage, which the next cells to take those ids
// reuse. Certificates against a tombstoned parent go with it. live is the
// number of cells after the compact.
func (ic *insertCache) remap(remap []int32, live int) {
	ic.grow(len(remap))
	for old, id := range remap {
		if id >= 0 && int(id) != old {
			ic.cells[id], ic.cells[old] = ic.cells[old], ic.cells[id]
		}
	}
	for i := range ic.cells {
		e := &ic.cells[i]
		if i >= live {
			e.release()
			continue
		}
		// Swap rather than copy: a slot past the kept prefix is reused by
		// pair(), and must not share its witness storage with a kept one.
		k := 0
		for j := range e.pairs {
			if p := remap[e.pairs[j].parent]; p >= 0 {
				e.pairs[j].parent = p
				e.pairs[k], e.pairs[j] = e.pairs[j], e.pairs[k]
				k++
			}
		}
		e.pairs = e.pairs[:k]
	}
}

// release strips an entry of everything tied to the cell that owned it.
func (e *cellCache) release() {
	e.gen, e.key = 0, ""
	e.r = e.r[:0]
	e.def2.r, e.def2.npts = e.def2.r[:0], 0
	e.bounded.r, e.bounded.bound = e.bounded.r[:0], e.bounded.bound[:0]
	e.pairs = e.pairs[:0]
	e.reg = nil
}

// bytes estimates the heap the cache pins. Regions dominate: a halfspace
// costs its header, its dedup key and its coefficients, and the region
// arena is grown by doubling, so coefficients count twice.
func (ic *insertCache) bytes() int64 {
	var n int64
	region := func(r *geom.Region) {
		if r != nil {
			n += int64(cap(r.HS)) * int64(40+16*r.Dim)
		}
	}
	for i := range ic.cells {
		e := &ic.cells[i]
		region(e.def2.reg)
		region(e.bounded.reg)
		n += 256 + int64(len(e.key)) + 64*int64(cap(e.pairs)) +
			4*int64(cap(e.r)+cap(e.def2.r)+cap(e.bounded.r)+cap(e.bounded.bound)+cap(e.parents))
		for j := range e.pairs {
			n += 8 * int64(cap(e.pairs[j].w))
		}
	}
	return n
}

// cachedRegion is one cell's Definition-2 region over the universe of the
// first npts options, together with the result sequence it was derived
// from (the validity check: a cell whose R changed is rebuilt fresh).
type cachedRegion struct {
	reg  *geom.Region
	r    []int32
	npts int
}

// boundedRegion is a Bound-carrying cell's region in the bounded form of
// Index.Region, with the result sequence and bounding set it was built from.
type boundedRegion struct {
	reg   *geom.Region
	r     []int32
	bound []int32
}

// pairState is the cached outcome of one (child, parent) intersection test,
// valid while both cells' generations match. A failed pair stays failed
// (regions only shrink). A passing pair carries the witness point of its
// last full LP plus the constraint counts that witness was verified
// against; re-verification evaluates only the newer halfspaces.
type pairState struct {
	parent     int32
	cGen, pGen uint32
	failed     bool
	w          []float64
	slack      float64
	nc, np     int
}

// pair returns the certificate slot of candidate parent p, appending an
// unknown one (generations that match nothing) on first sight.
func (e *cellCache) pair(p int32) *pairState {
	for i := range e.pairs {
		if e.pairs[i].parent == p {
			return &e.pairs[i]
		}
	}
	if n := len(e.pairs); n < cap(e.pairs) {
		e.pairs = e.pairs[:n+1]
		e.pairs[n] = pairState{parent: p, w: e.pairs[n].w[:0]}
	} else {
		e.pairs = append(e.pairs, pairState{parent: p})
	}
	return &e.pairs[len(e.pairs)-1]
}

// advanceRegion returns id's Definition-2 region over the universe
// Pts[:target], reusing e's cached constraint set when the cell's result
// sequence still equals r. The fresh-build path lays halfspaces in exactly
// regionOver's order (prefix prefs, then non-R options ascending), and the
// advance path appends the newly arrived options at the tail — which is
// where a fresh build would put them, since new options always take the
// largest indices. Constraint order, dedup, and hash are therefore
// bit-identical to an uncached rebuild. reused reports whether the cached
// constraints were kept.
func (ix *Index) advanceRegion(e *cachedRegion, id int32, r []int32, target int) (reg *geom.Region, reused bool) {
	c := &ix.Cells[id]
	reused = e.reg != nil && e.npts > 0 && e.npts <= target && int32sEqual(e.r, r)
	if !reused {
		if e.reg == nil {
			e.reg = geom.NewRegion(ix.RDim())
		} else {
			e.reg.Reset(ix.RDim())
		}
		e.r = append(e.r[:0], r...)
		e.npts = 0
		opt := ix.Pts[c.Opt]
		for _, j := range r[:len(r)-1] {
			e.reg.AddPref(ix.Pts[j], opt)
		}
	}
	opt := ix.Pts[c.Opt]
	for q := e.npts; q < target; q++ {
		if !containsID(e.r, int32(q)) {
			e.reg.AddPref(opt, ix.Pts[q])
		}
	}
	e.npts = target
	return e.reg, reused
}

// advanceBounded is advanceRegion for the bounded form: the region of
// Index.Region(id), rebuilt only when the cell's result sequence changed or
// its bounding set is no longer an extension of the one last seen. A split
// appends the new option to Bound, which appends one halfspace here exactly
// where the rebuild would put it.
func (ix *Index) advanceBounded(e *boundedRegion, id int32, r []int32) (reg *geom.Region, reused bool) {
	c := &ix.Cells[id]
	opt := ix.Pts[c.Opt]
	reused = e.reg != nil && len(e.bound) <= len(c.Bound) &&
		int32sEqual(e.r, r) && int32sEqual(e.bound, c.Bound[:len(e.bound)])
	if !reused {
		if e.reg == nil {
			e.reg = geom.NewRegion(ix.RDim())
		} else {
			e.reg.Reset(ix.RDim())
		}
		e.r = append(e.r[:0], r...)
		e.bound = e.bound[:0]
		for _, j := range r[:len(r)-1] {
			e.reg.AddPref(ix.Pts[j], opt)
		}
	}
	for _, b := range c.Bound[len(e.bound):] {
		e.reg.AddPref(opt, ix.Pts[b])
		e.bound = append(e.bound, b)
	}
	return e.reg, reused
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
