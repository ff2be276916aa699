// Package tlevelindex implements the τ-LevelIndex of "τ-LevelIndex: Towards
// Efficient Query Processing in Continuous Preference Space" (SIGMOD 2022):
// a general index over the continuous preference space of linear scoring
// functions that answers kSPR, UTK, ORU, top-k, MaxRank, and why-not
// queries by cell lookup instead of per-query geometric computation.
//
// # Model
//
// A dataset is a slice of options, each a []float64 of d attributes in
// which higher values are better. A user is a weight vector w with
// w[i] >= 0 and Σ w[i] = 1; the score of option r is the dot product r·w.
// Because the weights sum to one, all geometry lives in the reduced
// (d−1)-dimensional coordinates x = w[:d−1]; query regions and region
// results use these reduced coordinates.
//
// # Building
//
//	ix, err := tlevelindex.Build(options, 10)                      // PBA⁺
//	ix, err := tlevelindex.Build(options, 10, tlevelindex.WithAlgorithm(tlevelindex.IBA))
//
// τ bounds the precomputed ranking depth. Queries with k ≤ τ are pure
// lookups; a query with k > τ is refused with ErrBeyondTau. ExtendTau
// deepens the index (it keeps a reference to the dataset for that purpose
// unless WithoutFullData is set).
//
// # Querying
//
//	res, _ := ix.KSPR(2, 0)                      // regions where option 0 ranks top-2
//	res, _ := ix.UTK(3, []float64{0.35}, []float64{0.45})
//	res, _ := ix.ORU(2, []float64{0.3, 0.7}, 3)  // full weight vector
//	top, _ := ix.TopK([]float64{0.18, 0.82}, 2)
package tlevelindex

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"tlevelindex/internal/index"
	"tlevelindex/internal/obs"
)

// Tracer receives completed spans from instrumented operations: one span
// per query, plain or context-aware (names "query.topk", "query.kspr", ...)
// carrying VisitedCells/LPCalls/witness fast-path measurements, and — when
// attached at build time via WithTracer — per-phase and per-level build
// spans.
// Implementations must be safe for concurrent use and return quickly. A nil
// Tracer disables tracing entirely; the disabled path performs no span work
// beyond a single atomic load and nil check.
type Tracer = obs.Tracer

// Span is one completed instrumented operation; see Tracer.
type Span = obs.Span

// Attr is one numeric measurement on a Span.
type Attr = obs.Attr

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc = obs.TracerFunc

// BuildProgress is one progress report from a partition-based build or an
// ExtendTau; see WithProgress.
type BuildProgress = index.BuildProgress

// Algorithm selects a construction algorithm (§5–6 of the paper).
type Algorithm int

const (
	// PBAPlus is the partition-based approach with dominance-graph
	// acceleration (§6.3) — the recommended builder.
	PBAPlus Algorithm = iota
	// PBA is the basic partition-based approach (§6.2).
	PBA
	// IBA is the insertion-based approach with skyline-layer ordering (§5.2).
	IBA
	// IBAR is IBA with a random insertion order.
	IBAR
	// BSL is the UTK₂-adapted baseline builder (§5.1).
	BSL
)

// String implements fmt.Stringer.
func (a Algorithm) String() string { return a.internal().String() }

func (a Algorithm) internal() index.Algorithm {
	switch a {
	case PBA:
		return index.PBA
	case IBA:
		return index.IBA
	case IBAR:
		return index.IBAR
	case BSL:
		return index.BSL
	default:
		return index.PBAPlus
	}
}

// Option configures Build.
type Option func(*buildConfig)

type buildConfig struct {
	alg          Algorithm
	seed         int64
	dropFullData bool
	onion        index.OnionMode
	workers      int
	trace        Tracer
	progress     func(BuildProgress)
}

// WithAlgorithm selects the construction algorithm (default PBAPlus).
func WithAlgorithm(a Algorithm) Option { return func(c *buildConfig) { c.alg = a } }

// WithSeed sets the shuffle seed for the IBAR builder.
func WithSeed(seed int64) Option { return func(c *buildConfig) { c.seed = seed } }

// WithWorkers bounds the number of goroutines used for the LP-heavy phases
// of construction and ExtendTau. Values below 1 select
// runtime.GOMAXPROCS(0), the default. A d=2 PBA or PBA⁺ build (and so an
// insert's rebuild) runs on one goroutine whatever the bound. The built
// index is byte-identical for every worker count: parallel phases only
// compute, and cells are always materialized in a deterministic sequential
// order.
func WithWorkers(n int) Option { return func(c *buildConfig) { c.workers = n } }

// WithoutFullData drops the reference to the input dataset after building.
// The index becomes smaller but ExtendTau cannot recruit options beyond
// the τ-skyband: it returns ErrNeedsFullData.
func WithoutFullData() Option { return func(c *buildConfig) { c.dropFullData = true } }

// WithOnionFilter forces the τ-onion-layer refinement of the option filter
// on. By default it runs only for the insertion-based builders, where
// shrinking the option count pays for the peeling LPs.
func WithOnionFilter() Option { return func(c *buildConfig) { c.onion = index.OnionOn } }

// WithoutOnionFilter forces the τ-onion-layer refinement off, leaving only
// the τ-skyband filter (the ablation knob).
func WithoutOnionFilter() Option { return func(c *buildConfig) { c.onion = index.OnionOff } }

// WithTracer attaches t to the build (phase spans "build.filter",
// "build.<algorithm>", "build.compact", per-level "build.level" spans,
// and each build level's "build.level.compute", "build.level.apply" and
// "build.level.merge"; the rebuild of every later accepted insert batch
// and of every ExtendTau emits the same build spans) and to the built index
// for query spans, as if SetTracer(t) had been called on the result. nil is
// the default: tracing off.
func WithTracer(t Tracer) Option { return func(c *buildConfig) { c.trace = t } }

// WithProgress registers a callback invoked after every completed level of
// a partition-based build — and of any later ExtendTau or insert rebuild —
// with the level's cell count and cells/sec throughput, so long PBA builds
// can be watched. The callback runs on the building goroutine and must not call
// back into the index.
func WithProgress(fn func(BuildProgress)) Option { return func(c *buildConfig) { c.progress = fn } }

// BuildStats reports construction effort and index shape; see the paper's
// Table 4 and Figures 9–10.
type BuildStats = index.BuildStats

// Index is a built τ-LevelIndex over a dataset.
//
// # Concurrency
//
// Queries are safe alongside each other and alongside writers; each call
// answers from one published version of the index. A version is never
// changed once published: the writers — Insert, InsertBatch,
// InsertBatchAlongside and ExtendTau, which run one at a time — build the
// next version beside it and publish it with one atomic pointer store, so
// a query never waits for a rebuild. A query with k > τ is refused with
// ErrBeyondTau.
type Index struct {
	// cur is the published version; every query loads it once.
	cur atomic.Pointer[version]
	// mu serializes the writers, and guards nextExternal: the dataset id
	// the next externally inserted option receives, cached so an insert
	// need not rescan OrigIDs.
	mu           sync.Mutex
	nextExternal int
	// tracer receives per-query spans. Stored behind an atomic pointer so
	// SetTracer is safe against in-flight concurrent queries; nil (the
	// default) disables query tracing.
	tracer atomic.Pointer[tracerBox]
}

// tracerBox wraps the Tracer interface value so it can live behind an
// atomic.Pointer.
type tracerBox struct{ t Tracer }

// SetTracer attaches t to the index: every subsequent query emits
// one completed span ("query.topk", "query.kspr", "query.utk", "query.oru",
// "query.maxrank", "query.whynot") with duration, VisitedCells, LPCalls,
// and witness fast-path counts. Passing nil detaches the tracer. Safe to
// call concurrently with queries.
func (ix *Index) SetTracer(t Tracer) {
	if t == nil {
		ix.tracer.Store(nil)
		return
	}
	ix.tracer.Store(&tracerBox{t: t})
}

// loadTracer returns the attached tracer or nil; one atomic load on the
// query path.
func (ix *Index) loadTracer() Tracer {
	if b := ix.tracer.Load(); b != nil {
		return b.t
	}
	return nil
}

// version is one published state of an Index: an internal index no writer
// changes any more, and the memo of its dataset-id → filtered-id mapping.
type version struct {
	inner *index.Index
	// ids is filteredID's memo, built by the first query that needs it;
	// racing queries publish equal maps.
	ids atomic.Pointer[map[int]int32]
}

// newIndex wraps an internal index and primes the external-id counter past
// every dataset id in use.
func newIndex(inner *index.Index) *Index {
	ix := &Index{nextExternal: inner.Stats.InputOptions}
	for _, o := range inner.OrigIDs {
		if o >= ix.nextExternal {
			ix.nextExternal = o + 1
		}
	}
	ix.cur.Store(&version{inner: inner})
	return ix
}

// Build constructs a τ-LevelIndex over data (options as rows, attributes as
// columns, higher better). It filters the dataset to its τ-skyband first —
// options that cannot rank top-τ under any weights never define cells.
func Build(data [][]float64, tau int, opts ...Option) (*Index, error) {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	inner, err := index.Build(data, index.Config{
		Algorithm:    cfg.alg.internal(),
		Tau:          tau,
		Seed:         cfg.seed,
		DropFullData: cfg.dropFullData,
		Onion:        cfg.onion,
		Workers:      cfg.workers,
		Trace:        cfg.trace,
		Progress:     cfg.progress,
	})
	if err != nil {
		return nil, err
	}
	ix := newIndex(inner)
	if cfg.trace != nil {
		ix.SetTracer(cfg.trace)
	}
	return ix, nil
}

// Tau returns the number of precomputed levels.
func (ix *Index) Tau() int { return ix.cur.Load().inner.Tau }

// Dim returns the option dimensionality d.
func (ix *Index) Dim() int { return ix.cur.Load().inner.Dim }

// NumCells returns the number of cells, entry cell included.
func (ix *Index) NumCells() int { return ix.cur.Load().inner.NumCells() }

// CellsPerLevel returns the cell count of every level 1..τ.
func (ix *Index) CellsPerLevel() []int {
	in := ix.cur.Load().inner
	out := make([]int, in.Tau)
	for l := 1; l <= in.Tau; l++ {
		out[l-1] = len(in.Levels[l])
	}
	return out
}

// Stats returns construction statistics. An accepted insert and an
// ExtendTau rebuild the index with PBA⁺, after which every figure,
// Algorithm included, describes that rebuild rather than the original
// build.
func (ix *Index) Stats() BuildStats { return ix.cur.Load().inner.Stats }

// SizeBytes returns the serialized index size — the paper's index-size
// metric.
func (ix *Index) SizeBytes() int64 { return ix.cur.Load().inner.SizeBytes() }

// WriteTo serializes the index (without the full dataset).
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return ix.cur.Load().inner.WriteTo(w) }

// AppendBinary appends the bytes WriteTo writes to dst, growing it at most
// once; the error is always nil. It implements encoding.BinaryAppender.
func (ix *Index) AppendBinary(dst []byte) ([]byte, error) {
	return ix.cur.Load().inner.AppendBinary(dst), nil
}

// ReadIndex loads an index serialized with WriteTo, reading r to its end.
// The loaded index has no dataset reference: queries are limited to k ≤ τ.
func ReadIndex(r io.Reader) (*Index, error) {
	inner, err := index.Read(r)
	if err != nil {
		return nil, err
	}
	return newIndex(inner), nil
}

// ReadIndexBytes loads a serialized index directly from a byte buffer.
// With alias=true, the large arrays (option coordinates and CSR adjacency
// arenas) are materialized as slices aliasing buf where the platform
// allows, instead of heap copies; the buffer must then outlive the index. MmapBytes reports how much actually aliased (0 means the
// fallback copied everything and buf may be released immediately).
func ReadIndexBytes(buf []byte, alias bool) (*Index, error) {
	inner, err := index.ReadBytes(buf, alias)
	if err != nil {
		return nil, err
	}
	return newIndex(inner), nil
}

// OpenIndexFile loads a serialized index from a file, memory-mapping it
// when the platform supports it so the option coordinates and adjacency
// arenas alias the page cache instead of being copied to the heap. That
// buys memory, not time: the load still checksums every page, rebuilds the
// span tables and level lists and validates the DAG, so it grows with the
// index like the heap load does and is no faster (BENCH_recovery.json: 178
// vs 141 µs at 1,024 options, with about a third fewer bytes allocated).
// Falls back to a heap load where mmap is unavailable. When the returned
// index is mmap-backed (MmapBytes > 0) the caller must Close it when done
// to release the mapping.
func OpenIndexFile(path string) (*Index, error) {
	inner, err := index.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return newIndex(inner), nil
}

// MmapBytes reports how many bytes of index state alias a memory mapping
// rather than the heap; 0 for a fully heap-backed index.
func (ix *Index) MmapBytes() int64 { return ix.cur.Load().inner.MmapBytes() }

// Close releases the memory mapping backing an index loaded with
// OpenIndexFile, if any. The index must not be used afterwards when
// MmapBytes was non-zero. Heap-backed indexes need no Close; calling it
// anyway is a harmless no-op.
func (ix *Index) Close() error { return ix.cur.Load().inner.CloseBacking() }

// Workers returns the worker bound used for parallel phases (see
// WithWorkers); 0 means the runtime default is selected at use time.
func (ix *Index) Workers() int { return ix.cur.Load().inner.Workers() }

// HasFullData reports whether the index retains a reference to the full
// dataset, which ExtendTau needs to recruit options beyond the τ-skyband. It is false after ReadIndex or a WithoutFullData build.
func (ix *Index) HasFullData() bool { return ix.cur.Load().inner.HasFullData() }

// filteredID resolves a dataset index to the internal filtered id, or -1
// when the option was filtered out (it cannot rank within τ anywhere in
// preference space).
func (v *version) filteredID(orig int) int32 {
	mp := v.ids.Load()
	if mp == nil {
		m := make(map[int]int32, len(v.inner.OrigIDs))
		for fid, o := range v.inner.OrigIDs {
			m[o] = int32(fid)
		}
		mp = &m
		v.ids.Store(mp)
	}
	if fid, ok := (*mp)[orig]; ok {
		return fid
	}
	return -1
}

// origIDs maps filtered ids to dataset indices in one allocation; no ids
// give nil, as appending them one by one would.
func (v *version) origIDs(fids []int32) []int {
	if len(fids) == 0 {
		return nil
	}
	return v.origIDsInto(make([]int, len(fids)), fids)
}

// origIDsInto maps filtered ids to dataset indices into out, which holds
// len(fids) ints, and returns it.
func (v *version) origIDsInto(out []int, fids []int32) []int {
	for i, fid := range fids {
		out[i] = v.inner.OrigIDs[fid]
	}
	return out
}

// reduce validates a full weight vector and returns reduced coordinates: w
// without its last entry, a window of w rather than a copy, since every
// query only reads it for the length of the call. Every validation failure
// wraps ErrInvalidWeights.
func (v *version) reduce(w []float64) ([]float64, error) {
	if len(w) != v.inner.Dim {
		return nil, fmt.Errorf("%w: has %d entries, want %d", ErrInvalidWeights, len(w), v.inner.Dim)
	}
	sum := 0.0
	for _, c := range w {
		// NaN slips past both range checks below (every comparison with NaN
		// is false, and a NaN sum defeats the sum-to-1 test), so it needs an
		// explicit rejection; ±Inf already fails one of them.
		if math.IsNaN(c) {
			return nil, fmt.Errorf("%w: non-finite weight", ErrInvalidWeights)
		}
		if c < -1e-9 {
			return nil, fmt.Errorf("%w: negative weight", ErrInvalidWeights)
		}
		sum += c
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("%w: weights sum to %v, want 1", ErrInvalidWeights, sum)
	}
	return w[: len(w)-1 : len(w)-1], nil
}

// Insert adds a newly arrived option to the index and returns its id for
// use as a query argument: the index of the option in the (conceptually
// appended) dataset. It is InsertBatch of that option alone. Options that
// cannot rank top-τ anywhere are filtered and return -1 with a nil error;
// the index is unchanged. An option with the wrong dimensionality or a NaN
// or infinite coordinate returns an error and changes nothing.
func (ix *Index) Insert(option []float64) (int, error) {
	out, _ := ix.InsertBatch([][]float64{option})
	return out[0].ID, out[0].Err
}

// InsertResult is one item of an InsertBatch outcome: the dataset id the
// option resolved to (an existing id for exact duplicates, -1 when the
// option was filtered out or Err is non-nil) and its per-item error.
type InsertResult struct {
	ID  int
	Err error
}

// BatchInsertStats summarizes one InsertBatch call: how many options
// joined the pool (Accepted) and the wall time of the one rebuild they
// caused (FinalizeNS, 0 when nothing was accepted). ThawNS is always 0; a
// batch no longer thaws the index.
type BatchInsertStats = index.BatchStats

// InsertBatch applies a batch of newly arrived options in order. Options
// that cannot rank top-τ given the pool as grown by the records before
// them are filtered, exact duplicates resolve to the id already held, and
// the rest join the pool; if any did, the index is rebuilt over the grown
// pool with the PBA⁺ builder. The outcome is history-independent: it equals
// a build over the final pool, so any cut of the same options into batches
// — N Insert calls or one InsertBatch — gives the same ids and a
// byte-identical index, and a batch costs one rebuild however many options
// it carries. Item errors are per-item (a dimensionality mismatch or a NaN
// or infinite coordinate rejects only that option). Queries keep answering
// from the previous version until the rebuilt one is published.
func (ix *Index) InsertBatch(options [][]float64) ([]InsertResult, BatchInsertStats) {
	out, bs, _ := ix.InsertBatchAlongside(options, nil)
	return out, bs
}

// InsertBatchAlongside is InsertBatch that also runs alongside, when not
// nil, with the batch's results once they are known: on its own goroutine
// while the next version builds, or inline when nothing was accepted. It
// returns after both, with alongside's error. The new version is published
// only when alongside returns nil; otherwise it is dropped with its ids,
// the index is left as it was, and the next insert receives the same ids.
// alongside must not call a writer of the index; the store writes and
// fsyncs its WAL records in it, so the flush overlaps the rebuild instead
// of following it, and nothing the log lacks is ever published.
func (ix *Index) InsertBatchAlongside(options [][]float64, alongside func([]InsertResult) error) ([]InsertResult, BatchInsertStats, error) {
	if alongside == nil {
		alongside = func([]InsertResult) error { return nil }
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	next := ix.cur.Load().inner.Successor()
	fids, errs, bs := next.AdmitBatch(options)
	out := make([]InsertResult, len(options))
	nextExternal := ix.nextExternal
	for i, fid := range fids {
		switch {
		case errs[i] != nil:
			out[i] = InsertResult{ID: -1, Err: errs[i]}
		case fid < 0:
			out[i] = InsertResult{ID: -1}
		case next.OrigIDs[fid] < 0:
			// Admitted by this batch: a fresh id past the original input.
			next.OrigIDs[fid] = nextExternal
			nextExternal++
			fallthrough
		default:
			// Or a duplicate of an already-represented option (possibly one
			// accepted earlier in this very batch): resolve to its id.
			out[i] = InsertResult{ID: next.OrigIDs[fid]}
		}
	}
	if bs.Accepted == 0 {
		return out, bs, alongside(out)
	}
	errc := make(chan error, 1)
	go func() { errc <- alongside(out) }()
	bs.FinalizeNS = next.Rebuild()
	if err := <-errc; err != nil {
		return out, bs, err
	}
	ix.cur.Store(&version{inner: next})
	ix.nextExternal = nextExternal
	return out, bs, nil
}

// ExtendTau deepens the index to newTau levels permanently — the paper's
// "set a smaller τ first, then expand it on demand" workflow (§7.3). It is
// the only way to deepen an index: queries only read it, and one with
// k > τ returns ErrBeyondTau. Without its full dataset (HasFullData false)
// the index cannot recruit the options that rank below τ everywhere, so
// ExtendTau returns ErrNeedsFullData and leaves it unchanged. A newTau ≤ τ
// is a no-op. Queries keep answering from the shallower version until the
// deeper one is published.
//
// Deepening is a rebuild, like an accepted insert: the option pool grows to
// the newTau-skyband of the dataset and the index is rebuilt over it with
// the PBA⁺ builder, so it holds the cells of an index built at newTau in
// the first place, and its Stats are that rebuild's. Like a build, ExtendTau clamps
// newTau to the number of distinct options that can rank: on three
// options ExtendTau(5) leaves τ = 3, and a query with k = 5 is still
// refused with ErrBeyondTau.
func (ix *Index) ExtendTau(newTau int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.cur.Load().inner
	if newTau <= cur.Tau {
		return nil
	}
	next := cur.Successor()
	// A clamped τ that did not grow leaves next unbuilt.
	if err := next.ExtendTau(newTau); err != nil || next.Tau == cur.Tau {
		return err
	}
	ix.cur.Store(&version{inner: next})
	return nil
}

// LevelOptions returns the dataset indices of all options that hold rank ℓ
// somewhere in preference space. As §4 observes, this set is tighter than
// the corresponding skyline or onion-layer answer: level 1 is exactly the
// set of options that can be top-1.
func (ix *Index) LevelOptions(l int) []int {
	v := ix.cur.Load()
	return v.origIDs(v.inner.LevelOptions(l))
}
