// Package index implements the τ-LevelIndex of the paper: a DAG of
// implicitly represented preference-space cells (Definition 4), four
// construction algorithms (BSL §5.1, IBA §5.2, PBA §6.2, PBA⁺ §6.3), and
// the query algorithms of §4 (kSPR, UTK, ORU, top-k, MaxRank, why-not),
// and ExtendTau's deepening past level τ by a rebuild.
//
// A rank-ℓ cell stores only its top-ℓ-th option, its DAG edges, and the
// small bounding option set produced by the partition-based builders; its
// top-ℓ result set R is recovered by walking any parent chain (all chains
// agree), and its geometric region is reassembled on demand from R and the
// bounding set (Definition 5 / Lemma 2). This is the paper's implicit cell
// representation that keeps the index size practical.
package index

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"tlevelindex/internal/dg"
	"tlevelindex/internal/geom"
	"tlevelindex/internal/obs"
	"tlevelindex/internal/pool"
)

// NoOption marks the entry cell's option slot.
const NoOption int32 = -1

// Cell is one vertex of the τ-LevelIndex DAG.
type Cell struct {
	ID       int32
	Level    int32 // path length from the entry cell; -1 for tombstones
	Opt      int32 // top-ℓ-th option (filtered id); NoOption for the root
	Parents  []int32
	Children []int32
	// Bound is the bounding option set B (Definition 5): the candidate
	// options of the parent partition other than Opt. nil means the
	// Definition-2 bound "every inserted option outside R", which is what
	// the insertion-based builder produces.
	Bound []int32
}

// BuildStats carries the instrumentation reported in the paper's Table 4
// and Figures 9–11. They describe the build that made the current cells:
// an InsertBatch that accepts an option, and an ExtendTau, rebuild the
// index with PBA⁺, so from then on every figure, Algorithm ("PBA+")
// included, is that rebuild's, whichever algorithm built the index first,
// and the verdict counters read 0 (the rebuild runs without the memo).
// InputOptions is the one figure carried across.
type BuildStats struct {
	Algorithm       string
	InputOptions    int // |D|
	FilteredOptions int // τ-skyband size m
	// Per level ℓ (index ℓ-1): post-ComputeP candidate count, actually
	// feasible children, and cells after merging.
	PostFilterCandidates []float64
	ActualCandidates     []float64
	CellsPerLevel        []int
	HyperplanesPerCell   []float64
	LPCalls              int64
	// VerdictCache effectiveness over the build: memoized LP verdicts
	// served vs computed fresh, and entries held. Like the cache itself
	// these are not serialized; a loaded index, and one an insert or an
	// ExtendTau rebuilt (which runs without the cache), report zeros.
	VerdictHits    uint64
	VerdictMisses  uint64
	VerdictEntries int
}

// VerdictHitRate returns the fraction of verdict lookups served from the
// cache, or 0 when there were none.
func (s *BuildStats) VerdictHitRate() float64 {
	total := s.VerdictHits + s.VerdictMisses
	if total == 0 {
		return 0
	}
	return float64(s.VerdictHits) / float64(total)
}

// Index is a built τ-LevelIndex.
type Index struct {
	Dim int // original option dimensionality d
	Tau int
	// Pts are the filtered (τ-skyband) options in original coordinates;
	// cells refer to these by index.
	Pts [][]float64
	// OrigIDs maps a filtered option id to its index in the input dataset.
	OrigIDs []int
	Cells   []Cell
	// Levels[ℓ] lists the ids of the rank-ℓ cells, ℓ ∈ [0, Tau].
	Levels [][]int32
	Stats  BuildStats

	// flat holds the frozen CSR adjacency (see csr.go). Non-nil once
	// compact()/freeze() has run; nil while the staging slices are live.
	flat *flatDAG

	// fullPts optionally retains the unfiltered dataset, which ExtendTau
	// needs to deepen the index past τ (Figure 14's k > τ regime).
	fullPts [][]float64
	// workers bounds the goroutines used for per-cell LP work; values
	// below 1 mean runtime.GOMAXPROCS(0). Not serialized.
	workers int
	// verdicts memoizes pairwise C-dominance LP outcomes keyed by
	// (option pair, cell halfspace-set hash) within a build; BSL's scratch
	// indexes share their parent's cache. Not serialized (nil after Load,
	// which the cache treats as always-miss).
	verdicts *dg.VerdictCache
	// trace and progress carry the build-time observability hooks from
	// Config into the level loops (and later rebuilds). Both may be nil,
	// which disables them at the cost of one nil check. Not serialized.
	trace    obs.Tracer
	progress func(BuildProgress)
	// aliasedBytes counts the bytes of index state (coords + CSR arenas)
	// that alias a caller-owned buffer instead of the heap (ReadBytes with
	// alias=true); 0 for a fully heap-backed index. backing is that
	// buffer's releaser — typically an mmap — closed via CloseBacking once
	// the index is discarded. Mutation is safe while it is set: nothing
	// edits the aliased arrays in place. An insert appends fresh rows to
	// Pts, and an insert and ExtendTau both rebuild the cells on the heap.
	aliasedBytes int64
	backing      io.Closer
}

// MmapBytes reports how many bytes of this index alias an external buffer
// (a memory mapping) rather than the heap. Zero means fully heap-backed.
func (ix *Index) MmapBytes() int64 { return ix.aliasedBytes }

// CloseBacking releases the aliased buffer, if any. The index must not be
// used afterwards when MmapBytes was non-zero — its slices point into the
// released mapping. Safe to call on heap-backed indexes (no-op) and twice.
func (ix *Index) CloseBacking() error {
	c := ix.backing
	ix.backing = nil
	if c == nil {
		return nil
	}
	return c.Close()
}

// refreshVerdictStats copies the verdict-cache counters into Stats; called
// at the end of every build.
func (ix *Index) refreshVerdictStats() {
	hits, misses, size := ix.verdicts.Stats()
	ix.Stats.VerdictHits = hits
	ix.Stats.VerdictMisses = misses
	ix.Stats.VerdictEntries = size
}

// VerdictEntries returns the number of verdicts the build-time cache holds
// right now (Stats.VerdictEntries is the figure as of the last build); 0
// for a loaded index or one an insert or ExtendTau rebuilt, which have no
// cache.
func (ix *Index) VerdictEntries() int {
	_, _, size := ix.verdicts.Stats()
	return size
}

// Workers returns the configured worker bound (0 meaning the GOMAXPROCS
// default).
func (ix *Index) Workers() int { return ix.workers }

// SetWorkers changes the worker bound of later rebuilds (an insert's or an
// ExtendTau's); values below 1 select the GOMAXPROCS default.
func (ix *Index) SetWorkers(n int) { ix.workers = n }

// HasFullData reports whether the index retains the unfiltered dataset, so
// ExtendTau can recruit options beyond the τ-skyband.
func (ix *Index) HasFullData() bool { return ix.fullPts != nil }

// RDim returns the reduced preference-space dimension d−1.
func (ix *Index) RDim() int { return ix.Dim - 1 }

// Root returns the entry cell id (always 0).
func (ix *Index) Root() int32 { return 0 }

// NumCells returns the number of live cells including the entry cell.
func (ix *Index) NumCells() int {
	n := 0
	for i := range ix.Cells {
		if ix.Cells[i].Level >= 0 {
			n++
		}
	}
	return n
}

// ResultSet returns the top-ℓ result set R of the cell in rank order
// (R[0] is the top-1st option, R[ℓ-1] == cell.Opt). The root yields nil.
func (ix *Index) ResultSet(id int32) []int32 {
	if ix.Cells[id].Level <= 0 {
		return nil
	}
	return ix.resultSetInto(id, nil)
}

// resultSetInto is ResultSet writing into a caller-provided (typically
// pooled) buffer, grown as needed. The root yields an empty slice.
func (ix *Index) resultSetInto(id int32, buf []int32) []int32 {
	n := int(ix.Cells[id].Level)
	if n <= 0 {
		return buf[:0]
	}
	if cap(buf) < n {
		buf = make([]int32, n)
	} else {
		buf = buf[:n]
	}
	cur := id
	for {
		c := &ix.Cells[cur]
		if c.Opt == NoOption {
			break
		}
		buf[c.Level-1] = c.Opt
		cur = ix.parentsOf(cur)[0]
	}
	return buf
}

// rKey returns a canonical merge key for (R as a set, opt).
func (ix *Index) rKey(id int32) string {
	buf := rsetScratch.Get()
	defer rsetScratch.Put(buf)
	*buf = ix.resultSetInto(id, *buf)
	var arr [64]byte
	key := appendSetKey(arr[:0], *buf)
	return string(binary.BigEndian.AppendUint32(key, uint32(ix.Cells[id].Opt)))
}

// childKey returns the rKey of a new child cell for opt under a cell whose
// result set, sorted ascending, is sorted: the same bytes, without walking
// the child's parent chain.
func childKey(sorted []int32, opt int32) string {
	var arr [64]byte
	key := arr[:0]
	placed := false
	for _, v := range sorted {
		if !placed && opt < v {
			key = binary.BigEndian.AppendUint32(key, uint32(opt))
			placed = true
		}
		key = binary.BigEndian.AppendUint32(key, uint32(v))
	}
	if !placed {
		key = binary.BigEndian.AppendUint32(key, uint32(opt))
	}
	return string(binary.BigEndian.AppendUint32(key, uint32(opt)))
}

// Region reconstructs the cell's geometric region in reduced preference
// space: prefix halfspaces (each higher-ranked option beats Opt), bounding
// halfspaces (Opt beats each bounding option), and the simplex bounds. When
// Bound is nil, the Definition-2 bound over every non-R option is used.
func (ix *Index) Region(id int32) *geom.Region {
	return ix.RegionInto(id, geom.NewRegion(ix.RDim()))
}

// RegionInto is Region reassembling into a caller-provided (typically
// pooled) region, which is reset first. Query traversals use it to avoid an
// allocation per visited cell.
func (ix *Index) RegionInto(id int32, reg *geom.Region) *geom.Region {
	buf := rsetScratch.Get()
	defer rsetScratch.Put(buf)
	return ix.regionIntoBuf(id, reg, buf)
}

// rsetScratch recycles result-set buffers for RegionInto callers that do not
// thread their own.
var rsetScratch = pool.NewScratch(func() *[]int32 {
	s := make([]int32, 0, 64)
	return &s
})

// regionIntoBuf is RegionInto with an explicit result-set scratch buffer
// (stored back through buf so growth is retained). The halfspaces are built
// in the region's arena via AddPref — no allocation per halfspace — in the
// exact order of the allocating path, so region hashes and LP behavior are
// unchanged.
func (ix *Index) regionIntoBuf(id int32, reg *geom.Region, buf *[]int32) *geom.Region {
	return assembleCell(ix, id, reg, buf)
}

// RowsInto returns the cell's halfspace rows — RegionInto(id, …).HS: same
// rows, same order, same bits — without building a Region. They are a
// window of the rows column, shared and immutable (see levelCols): every
// cell of a frozen index is at a level 0..τ, which the loaders check.
func (ix *Index) RowsInto(id int32) geom.Rows {
	f, l := ix.flat, ix.Cells[id].Level
	rows := ix.levelRows(f, l)
	s := &f.spans[id]
	return rows[s.rowOff : s.rowOff+s.rowLen : s.rowOff+s.rowLen]
}

// cellSink is what assembleCell builds a cell's halfspaces in: a full
// *geom.Region for the builders and the LP-backed predicates, a bare
// *geom.RowBuf for everything that only evaluates rows at points.
type cellSink[T any] interface {
	Reset(dim int)
	AddPref(ri, rj []float64) T
}

// assembleCell resets sink and adds the cell's halfspaces to it: prefix
// (each higher-ranked option beats Opt), then bound (Opt beats each bounding
// option, or every option outside R under the Definition-2 bound).
func assembleCell[T cellSink[T]](ix *Index, id int32, sink T, buf *[]int32) T {
	c := &ix.Cells[id]
	sink.Reset(ix.RDim())
	if c.Opt == NoOption {
		return sink
	}
	r := ix.resultSetInto(id, *buf)
	*buf = r
	opt := ix.Pts[c.Opt]
	for _, j := range r[:len(r)-1] {
		sink.AddPref(ix.Pts[j], opt) // S_j >= S_opt
	}
	if bound, isNil := ix.boundOf(id); !isNil {
		for _, b := range bound {
			sink.AddPref(opt, ix.Pts[b]) // S_opt >= S_b
		}
		return sink
	}
	// Definition-2 bound: every option outside R. R has at most
	// Tau entries, so a linear scan beats a lookup set.
	for j := int32(0); int(j) < len(ix.Pts); j++ {
		if !containsID(r, j) {
			sink.AddPref(opt, ix.Pts[j])
		}
	}
	return sink
}

func containsID(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// HyperplaneCount returns the number of halfspaces in the cell's
// representation (excluding simplex bounds) — the Table 4 metric.
func (ix *Index) HyperplaneCount(id int32) int {
	c := &ix.Cells[id]
	if c.Opt == NoOption {
		return 0
	}
	prefix := int(c.Level) - 1
	if bound, isNil := ix.boundOf(id); !isNil {
		return prefix + len(bound)
	}
	return prefix + (len(ix.Pts) - int(c.Level))
}

// newCell appends a live cell and returns its id. Parents' child lists are
// updated by the caller.
func (ix *Index) newCell(level, opt int32, parents []int32, bound []int32) int32 {
	id := int32(len(ix.Cells))
	ix.Cells = append(ix.Cells, Cell{
		ID: id, Level: level, Opt: opt,
		Parents: parents, Bound: bound,
	})
	return id
}

func (ix *Index) addEdge(parent, child int32) {
	p := &ix.Cells[parent]
	p.Children = append(p.Children, child)
	c := &ix.Cells[child]
	found := false
	for _, x := range c.Parents {
		if x == parent {
			found = true
			break
		}
	}
	if !found {
		c.Parents = append(c.Parents, parent)
	}
}

// rebuildLevels recomputes Levels from live cells.
func (ix *Index) rebuildLevels() {
	ix.Levels = make([][]int32, ix.Tau+1)
	for i := range ix.Cells {
		c := &ix.Cells[i]
		if c.Level < 0 || int(c.Level) > ix.Tau {
			continue
		}
		ix.Levels[c.Level] = append(ix.Levels[c.Level], c.ID)
	}
}

// compact removes tombstoned cells, renumbers ids densely, and freezes the
// adjacency into the flat CSR form (csr.go) — the final step of every build,
// and so of every accepted insert batch.
func (ix *Index) compact() {
	remap := make([]int32, len(ix.Cells))
	for i := range remap {
		remap[i] = -1
	}
	live := make([]Cell, 0, ix.NumCells())
	for i := range ix.Cells {
		if ix.Cells[i].Level >= 0 {
			remap[i] = int32(len(live))
			live = append(live, ix.Cells[i])
		}
	}
	for i := range live {
		c := &live[i]
		c.ID = remap[c.ID]
		c.Parents = remapIDs(c.Parents, remap)
		c.Children = remapIDs(c.Children, remap)
	}
	ix.Cells = live
	ix.rebuildLevels()
	ix.freeze()
}

func remapIDs(ids []int32, remap []int32) []int32 {
	out := ids[:0]
	for _, id := range ids {
		if remap[id] >= 0 {
			out = append(out, remap[id])
		}
	}
	return out
}

// mergeLevel merges the given cells (all at the same level) that share the
// same (R set, opt): parents, children, and bounds are unioned, absorbed
// cells are tombstoned, and edges rewired. It returns the surviving ids, in
// order of first appearance, and for each position in ids the index in out
// of the cell it became part of. keys, when not nil, holds each cell's
// rKey; otherwise each is computed once here.
func (ix *Index) mergeLevel(ids []int32, keys []string) (out []int32, groupOf []int) {
	first := make(map[string]int, len(ids))
	groupOf = make([]int, len(ids))
	// nextDup[i] is the position of the next cell merged into the same
	// survivor as position i, or -1; last tracks each group's tail.
	nextDup := make([]int, len(ids))
	var last []int
	for i, id := range ids {
		nextDup[i] = -1
		var k string
		if keys != nil {
			k = keys[i]
		} else {
			k = ix.rKey(id)
		}
		if g, ok := first[k]; ok {
			groupOf[i] = g
			nextDup[last[g]] = i
			last[g] = i
			continue
		}
		first[k] = len(out)
		groupOf[i] = len(out)
		out = append(out, id)
		last = append(last, i)
	}
	if len(out) == len(ids) {
		return out, groupOf
	}
	head := 0 // survivors appear in ids in the order of out
	for _, keep := range out {
		for ids[head] != keep {
			head++
		}
		if nextDup[head] < 0 {
			continue
		}
		kc := &ix.Cells[keep]
		boundSet := make(map[int32]bool, len(kc.Bound))
		for _, b := range kc.Bound {
			boundSet[b] = true
		}
		for di := nextDup[head]; di >= 0; di = nextDup[di] {
			dup := ids[di]
			dc := &ix.Cells[dup]
			// Rewire parents.
			for _, p := range dc.Parents {
				replaceID(&ix.Cells[p].Children, dup, keep)
			}
			kc.Parents = append(kc.Parents, dc.Parents...)
			// Rewire children.
			for _, ch := range dc.Children {
				replaceID(&ix.Cells[ch].Parents, dup, keep)
			}
			kc.Children = append(kc.Children, dc.Children...)
			if dc.Bound == nil {
				kc.Bound = nil
			} else if kc.Bound != nil {
				for _, b := range dc.Bound {
					if !boundSet[b] {
						boundSet[b] = true
						kc.Bound = append(kc.Bound, b)
					}
				}
			}
			dc.Level = -1
			dc.Parents, dc.Children, dc.Bound = nil, nil, nil
		}
		kc.Parents = dedupeIDs(kc.Parents)
		kc.Children = dedupeIDs(kc.Children)
	}
	return out, groupOf
}

func replaceID(s *[]int32, from, to int32) {
	for i, v := range *s {
		if v == from {
			(*s)[i] = to
		}
	}
	*s = dedupeIDs(*s)
}

func dedupeIDs(s []int32) []int32 {
	slices.Sort(s)
	return slices.Compact(s)
}

// Validate checks structural invariants: level consistency along edges,
// result-set path independence, and (optionally, expensive) region
// feasibility of every cell. It returns the first violation found. The
// first pass proves every root path descends one level a step to an
// option-less level-0 cell, so the second can walk result sets over
// untrusted (loaded) adjacency.
func (ix *Index) Validate(checkRegions bool) error {
	if len(ix.Cells) == 0 || ix.Cells[0].Opt != NoOption {
		return fmt.Errorf("index: missing entry cell")
	}
	for i := range ix.Cells {
		c := &ix.Cells[i]
		if c.Level < 0 {
			continue
		}
		if c.ID != int32(i) {
			return fmt.Errorf("index: cell %d has ID %d", i, c.ID)
		}
		if c.Level == 0 && c.Opt != NoOption {
			return fmt.Errorf("index: cell %d at level 0 has option %d", i, c.Opt)
		}
		parents := ix.parentsOf(c.ID)
		if c.Level > 0 && len(parents) == 0 {
			return fmt.Errorf("index: cell %d at level %d has no parents", i, c.Level)
		}
		for _, p := range parents {
			if ix.Cells[p].Level != c.Level-1 {
				return fmt.Errorf("index: cell %d level %d has parent %d at level %d",
					i, c.Level, p, ix.Cells[p].Level)
			}
		}
		for _, ch := range ix.childrenOf(c.ID) {
			if ix.Cells[ch].Level != c.Level+1 {
				return fmt.Errorf("index: cell %d level %d has child %d at level %d",
					i, c.Level, ch, ix.Cells[ch].Level)
			}
		}
	}
	var want, got []int32 // result-set buffers, reused across cells
	for i := range ix.Cells {
		c := &ix.Cells[i]
		if c.Level <= 0 {
			continue
		}
		// Path independence: the R sets via every parent must agree.
		if parents := ix.parentsOf(c.ID); len(parents) > 1 {
			want = ix.resultSetInto(parents[0], want)
			slices.Sort(want)
			for _, p := range parents[1:] {
				got = ix.resultSetInto(p, got)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					return fmt.Errorf("index: cell %d has parents with different result sets", i)
				}
			}
		}
		if checkRegions && !ix.Region(c.ID).Feasible() {
			return fmt.Errorf("index: cell %d (level %d) has an empty region", i, c.Level)
		}
	}
	return nil
}

// appendSetKey appends a canonical key for r as a set to dst: the ids
// ascending, four bytes each.
func appendSetKey(dst []byte, r []int32) []byte {
	var arr [16]int32
	s := append(arr[:0], r...)
	slices.Sort(s)
	for _, v := range s {
		dst = binary.BigEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}
