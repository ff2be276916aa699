// Package replicate bootstraps and runs a follower replica: a process that
// serves the same index as a primary without ever building it. The
// follower downloads the primary's snapshot-shipping stream
// (GET /v1/admin/snapshot/stream, see internal/store ship.go for the wire
// format), loads the snapshot zero-copy via mmap, replays the shipped WAL
// tail through the same deterministic insert path recovery uses — with the
// same acknowledged-id cross-check — and then polls the primary for
// records beyond its applied LSN.
//
// # State machine
//
//	bootstrapping → replaying → following ⇄ rebootstrapping
//
// Start returns only after the follower reaches "following": a consistent
// index at an exact LSN handed off by the primary. Nothing is ever served
// from a partially-applied state — a corrupt stream during bootstrap
// deletes the local download and re-fetches (up to Options.Retries), and a
// corrupt batch during follow leaves the index at the last good LSN for
// the next poll to continue from.
//
// # Crash safety
//
// The downloaded snapshot is installed atomically (tmp file, fsync,
// rename) under the store's snapshot naming, so a follower killed
// mid-download leaves only an ignorable .tmp file and a restart
// re-bootstraps cleanly; one killed after the install resumes by loading
// the local snapshot and fetching just the tail from its LSN. When the
// primary has pruned past that LSN it answers 410 Gone and the follower
// falls back to a full bootstrap.
package replicate

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	tlx "tlevelindex"
	"tlevelindex/internal/obs"
	"tlevelindex/internal/store"
)

// Options configures a Follower.
type Options struct {
	// PrimaryURL is the primary's base URL (e.g. http://host:8080).
	PrimaryURL string
	// Dir is the local directory holding the downloaded snapshot, so a
	// restarted follower can resume without re-shipping the whole index.
	// It is created if missing.
	Dir string
	// HeapLoad forces the downloaded snapshot onto the heap instead of the
	// default zero-copy mmap load.
	HeapLoad bool
	// PollInterval is the follow-loop cadence; zero selects 250ms.
	PollInterval time.Duration
	// Retries bounds the re-fetch attempts when a shipped stream arrives
	// corrupt during bootstrap; zero selects 3.
	Retries int
	// Client issues the HTTP requests; nil uses http.DefaultClient.
	Client *http.Client
	// Logger receives follower lifecycle events; nil discards them.
	Logger *slog.Logger
	// Recorder, when non-nil, receives the bootstrap trace: the download,
	// replay, and tail-fetch spans of every (re-)bootstrap. Share it with
	// the serve handler (serve.Config.Recorder) so a follower's
	// /v1/admin/trace shows its own bootstraps next to request traces.
	// Bootstrap fetches carry the trace as a W3C traceparent header whether
	// or not a recorder is attached, so the primary's flight recorder sees
	// the bootstrap under the follower's trace id either way.
	Recorder *obs.Recorder
}

// Follower is a live replica of a remote primary. It implements the serve
// package's Follower interface; wrap it in serve.NewFollowerHandler to
// expose it over HTTP.
type Follower struct {
	opts   Options
	client *http.Client
	log    *slog.Logger

	// mu guards ix: the follow loop applies records and rebootstraps under
	// the write lock, the serve layer queries under the read lock.
	mu sync.RWMutex
	ix *tlx.Index
	// applied and primary are atomics so status and gauges read them
	// without the lock. applied is also written under mu.
	applied atomic.Uint64
	primary atomic.Uint64
	state   atomic.Value // string

	// traceID is the most recent bootstrap's trace id (atomic.Value of
	// obs.TraceID), readable by anyone; bsc/tracing are the in-flight
	// bootstrap's span context and are only touched by the goroutine
	// running that bootstrap (Start's caller, then the follow loop).
	traceID atomic.Value
	bsc     obs.SpanContext
	tracing bool

	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// beginTrace opens a bootstrap trace: a fresh trace id (forwarded on every
// bootstrap fetch) with a root span delivered to Options.Recorder, which
// may be nil — the id still propagates so the primary records its side.
func (f *Follower) beginTrace() obs.Span {
	t := obs.NewTraceID()
	f.traceID.Store(t)
	f.bsc = obs.SpanContext{Trace: t, Tracer: f.opts.Recorder}
	f.tracing = true
	root := obs.StartSpanIn(f.bsc, "replicate.bootstrap")
	f.bsc.Span = root.ID
	return root
}

// endTrace completes the bootstrap trace and records it.
func (f *Follower) endTrace(root obs.Span, err error) {
	root.Err = err
	root.Duration = time.Since(root.Start)
	status := http.StatusOK
	if err != nil {
		status = http.StatusInternalServerError
	}
	f.opts.Recorder.Record(root, "replicate.bootstrap", status)
	f.tracing = false
}

// TraceID returns the most recent bootstrap's trace id — the id to look up
// in the primary's (or, with a shared recorder, the follower's own)
// /v1/admin/trace. Zero before the first bootstrap begins.
func (f *Follower) TraceID() obs.TraceID {
	if t, ok := f.traceID.Load().(obs.TraceID); ok {
		return t
	}
	return obs.TraceID{}
}

// span opens a child span of the in-flight bootstrap trace; outside a
// bootstrap it returns the zero Span and finishSpan discards it.
func (f *Follower) span(name string) obs.Span {
	if !f.tracing {
		return obs.Span{}
	}
	return obs.StartSpanIn(f.bsc, name)
}

func (f *Follower) finishSpan(sp obs.Span, err error) {
	if !f.tracing {
		return
	}
	sp.Err = err
	sp.FinishTo(f.bsc.Tracer)
}

// get issues one GET toward the primary, carrying the bootstrap trace
// position as a traceparent header while a bootstrap is in flight so the
// primary's instrument adopts the follower's trace id.
func (f *Follower) get(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if f.tracing {
		req.Header.Set("traceparent", obs.Traceparent(f.bsc.Trace, f.bsc.Span))
	}
	return f.client.Do(req)
}

// snapshotName mirrors the store's snapshot naming so a follower data
// directory reads like a primary's.
func snapshotName(lsn uint64) string {
	return fmt.Sprintf("snapshot-%020d.idx", lsn)
}

func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snapshot-") || !strings.HasSuffix(name, ".idx") {
		return 0, false
	}
	lsn, err := strconv.ParseUint(name[len("snapshot-"):len(name)-len(".idx")], 10, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// Start bootstraps a follower and begins following. It returns once the
// local index is consistent at the primary's handed-off LSN — after a
// snapshot download (or local resume) and the replay of the shipped tail —
// so the caller can hand it straight to the serve layer.
func Start(opts Options) (*Follower, error) {
	if opts.PrimaryURL == "" {
		return nil, errors.New("replicate: no primary URL")
	}
	if opts.Dir == "" {
		return nil, errors.New("replicate: no data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	f := &Follower{
		opts:   opts,
		client: opts.Client,
		log:    opts.Logger,
		done:   make(chan struct{}),
	}
	if f.client == nil {
		f.client = http.DefaultClient
	}
	if f.log == nil {
		f.log = obs.NopLogger()
	}
	if f.opts.PollInterval <= 0 {
		f.opts.PollInterval = 250 * time.Millisecond
	}
	if f.opts.Retries <= 0 {
		f.opts.Retries = 3
	}
	f.state.Store("bootstrapping")
	if err := f.bootstrap(); err != nil {
		return nil, err
	}
	f.state.Store("following")
	f.wg.Add(1)
	go f.followLoop()
	return f, nil
}

// bootstrap establishes a consistent index: resume from a local snapshot
// when one loads and the primary still has our tail, else a full download.
// The index goes live (f.ix, f.applied) only once fully consistent. The
// whole bootstrap runs as one trace, propagated to the primary.
func (f *Follower) bootstrap() error {
	root := f.beginTrace()
	err := f.bootstrapInner()
	f.endTrace(root, err)
	return err
}

func (f *Follower) bootstrapInner() error {
	if lsn, ix, ok := f.resumeLocal(); ok {
		last, err := f.fetchTail(ix, lsn, false)
		if err == nil {
			f.install(ix, last)
			f.log.Info("replicate: resumed from local snapshot", "snapshotLsn", lsn, "appliedLsn", last)
			return nil
		}
		// The local snapshot is behind the primary's pruning horizon (410)
		// or the tail arrived corrupt; fall back to a full bootstrap.
		ix.Close()
		f.log.Warn("replicate: local resume failed; re-bootstrapping", "err", err)
	}
	f.state.Store("replaying")
	ix, last, err := f.fullBootstrap()
	if err != nil {
		return err
	}
	f.install(ix, last)
	f.log.Info("replicate: bootstrapped", "appliedLsn", last, "mmapBytes", ix.MmapBytes())
	return nil
}

// install publishes a consistent index at lsn, releasing any predecessor.
func (f *Follower) install(ix *tlx.Index, lsn uint64) {
	f.mu.Lock()
	old := f.ix
	f.ix = ix
	f.applied.Store(lsn)
	f.mu.Unlock()
	f.observePrimary(lsn)
	if old != nil {
		old.Close()
	}
}

// observePrimary ratchets the primary's observed LSN (single follow loop;
// the max check only guards against a stale bootstrap header).
func (f *Follower) observePrimary(lsn uint64) {
	if lsn > f.primary.Load() {
		f.primary.Store(lsn)
	}
}

// resumeLocal tries to load the newest locally downloaded snapshot.
func (f *Follower) resumeLocal() (uint64, *tlx.Index, bool) {
	entries, err := os.ReadDir(f.opts.Dir)
	if err != nil {
		return 0, nil, false
	}
	var snaps []struct {
		lsn  uint64
		name string
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			// A download killed mid-stream; never loadable, remove.
			os.Remove(filepath.Join(f.opts.Dir, e.Name()))
			continue
		}
		if lsn, ok := parseSnapshotName(e.Name()); ok {
			snaps = append(snaps, struct {
				lsn  uint64
				name string
			}{lsn, e.Name()})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn < snaps[j].lsn })
	for i := len(snaps) - 1; i >= 0; i-- {
		path := filepath.Join(f.opts.Dir, snaps[i].name)
		ix, err := f.loadSnapshot(path)
		if err != nil {
			f.log.Warn("replicate: local snapshot unusable; removing", "path", path, "err", err)
			os.Remove(path)
			continue
		}
		return snaps[i].lsn, ix, true
	}
	return 0, nil, false
}

func (f *Follower) loadSnapshot(path string) (*tlx.Index, error) {
	if f.opts.HeapLoad {
		file, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		return tlx.ReadIndex(file)
	}
	return tlx.OpenIndexFile(path)
}

// fullBootstrap downloads the whole stream — snapshot plus tail — and
// assembles a consistent index from it, retrying on corrupt arrivals. The
// returned index is private to the caller until installed.
func (f *Follower) fullBootstrap() (*tlx.Index, uint64, error) {
	var lastErr error
	for attempt := 1; attempt <= f.opts.Retries; attempt++ {
		ix, last, err := f.fetchFull()
		if err == nil {
			return ix, last, nil
		}
		lastErr = err
		if !isCorruptStream(err) {
			return nil, 0, err
		}
		// A truncated or bit-flipped stream: nothing was registered, the
		// partial download is gone, fetch again.
		f.log.Warn("replicate: shipped stream corrupt; re-fetching", "attempt", attempt, "err", err)
	}
	return nil, 0, fmt.Errorf("replicate: bootstrap failed after %d attempts: %w", f.opts.Retries, lastErr)
}

// isCorruptStream reports whether a fetch failed on the stream's content
// (worth re-fetching) rather than on connectivity.
func isCorruptStream(err error) bool {
	return errors.Is(err, tlx.ErrBadFormat) || errors.Is(err, store.ErrCorrupt)
}

// fetchFull performs one full-bootstrap download: stream the snapshot to
// disk (atomically installed), load it, replay the shipped tail onto it.
// Any error leaves no usable state behind except a validly installed
// snapshot file, which a later attempt or restart may still resume from.
func (f *Follower) fetchFull() (*tlx.Index, uint64, error) {
	resp, err := f.get(f.opts.PrimaryURL + "/v1/admin/snapshot/stream")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("replicate: primary answered %s", resp.Status)
	}
	hdr, err := store.ReadShipHeader(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if hdr.SnapBytes == 0 {
		return nil, 0, fmt.Errorf("%w: full bootstrap stream carries no snapshot", store.ErrCorrupt)
	}
	dl := f.span("replicate.download")
	path, err := f.downloadSnapshot(hdr, resp.Body)
	if err != nil {
		f.finishSpan(dl, err)
		return nil, 0, err
	}
	ix, err := f.loadSnapshot(path)
	if err != nil {
		// The X3 checksum caught a corrupt shipped snapshot; drop the file
		// so a retry cannot resume from it.
		os.Remove(path)
		f.finishSpan(dl, err)
		return nil, 0, err
	}
	dl.Set("snapBytes", float64(hdr.SnapBytes))
	f.finishSpan(dl, nil)
	rp := f.span("replicate.replay")
	last, err := f.applyTail(ix, hdr, resp.Body, hdr.SnapLSN, false)
	if err != nil {
		ix.Close()
		f.finishSpan(rp, err)
		return nil, 0, err
	}
	rp.Set("records", float64(last-hdr.SnapLSN))
	rp.Set("chunks", float64((last-hdr.SnapLSN+tailChunk-1)/tailChunk))
	f.finishSpan(rp, nil)
	f.observePrimary(last)
	f.pruneLocal(hdr.SnapLSN)
	return ix, last, nil
}

// downloadSnapshot streams the snapshot body into the data directory with
// the store's tmp-fsync-rename discipline: a crash mid-download leaves a
// .tmp file the next start deletes, never a half snapshot under the real
// name.
func (f *Follower) downloadSnapshot(hdr store.ShipHeader, r io.Reader) (string, error) {
	final := filepath.Join(f.opts.Dir, snapshotName(hdr.SnapLSN))
	tmp := final + ".tmp"
	file, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	n, err := io.Copy(file, io.LimitReader(r, hdr.SnapBytes))
	if err == nil && n != hdr.SnapBytes {
		err = fmt.Errorf("%w: snapshot stream truncated at %d of %d bytes", store.ErrCorrupt, n, hdr.SnapBytes)
	}
	if err == nil {
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	return final, nil
}

// tailChunk bounds one batched apply of shipped records: large enough that
// a deep catch-up pays few of the engine's rebuilds (one per batch that
// accepts anything), small enough that the records read off the wire before
// a chunk applies stay bounded.
const tailChunk = 256

// errDiverged marks a replay whose re-derived ids contradict the ids the
// primary acknowledged: the local index no longer matches the primary's
// history and only a re-bootstrap recovers. It wraps store.ErrCorrupt.
var errDiverged = fmt.Errorf("%w: follower diverged from primary history", store.ErrCorrupt)

// applyTail replays shipped records LSNs from+1 .. hdr.TailLSN onto ix in
// contiguous chunks of up to tailChunk records: each chunk is read fully
// off the wire first — a torn or out-of-order record aborts with nothing
// from that chunk applied — then applied as one InsertBatch, one rebuild
// of the index whose result is byte-identical to sequential inserts.
// Every re-assigned id is cross-checked against the id the primary
// acknowledged (the store's replay divergence check, applied over the
// wire); a mismatch or per-record apply error wraps errDiverged, because
// the chunk's remaining records were already applied and the index has
// left the primary's history — the follow loop answers by re-bootstrapping.
//
// With live set, ix is the served index: each chunk applies under one
// write-lock hold and f.applied advances once per chunk, so a deep
// catch-up costs lag/tailChunk lock acquisitions instead of lag. Without
// live, ix is private bootstrap state and no lock or counter is touched.
func (f *Follower) applyTail(ix *tlx.Index, hdr store.ShipHeader, r io.Reader, from uint64, live bool) (uint64, error) {
	last := from
	recs := make([]store.ShipRecord, 0, tailChunk)
	attrs := make([][]float64, 0, tailChunk)
	for last < hdr.TailLSN {
		recs, attrs = recs[:0], attrs[:0]
		for lsn := last + 1; lsn <= hdr.TailLSN && len(recs) < tailChunk; lsn++ {
			rec, err := store.ReadShipRecord(r)
			if err != nil {
				return last, err
			}
			if rec.LSN != lsn {
				return last, fmt.Errorf("%w: shipped record %d where %d expected", store.ErrCorrupt, rec.LSN, lsn)
			}
			recs = append(recs, rec)
			attrs = append(attrs, rec.Attrs)
		}
		if live {
			f.mu.Lock()
		}
		results, _ := ix.InsertBatch(attrs)
		verified := 0
		var err error
		for i, res := range results {
			lsn := last + uint64(i) + 1
			if res.Err != nil {
				err = fmt.Errorf("%w: replay failed at record %d: %v", errDiverged, lsn, res.Err)
				break
			}
			if int64(res.ID) != recs[i].ID {
				err = fmt.Errorf("%w: replay diverged at record %d: re-assigned id %d, acknowledged id %d",
					errDiverged, lsn, res.ID, recs[i].ID)
				break
			}
			verified++
		}
		last += uint64(verified)
		if live {
			f.applied.Store(last)
			f.mu.Unlock()
		}
		if err != nil {
			return last, err
		}
	}
	return last, nil
}

// fetchTail asks the primary for records beyond from and applies them to
// ix (see applyTail for the live flag). A 410 surfaces as
// store.ErrShipGap: the primary pruned our position and only a full
// re-bootstrap recovers.
func (f *Follower) fetchTail(ix *tlx.Index, from uint64, live bool) (uint64, error) {
	resp, err := f.get(f.opts.PrimaryURL + "/v1/admin/snapshot/stream?from=" + strconv.FormatUint(from, 10))
	if err != nil {
		return from, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return from, store.ErrShipGap
	default:
		return from, fmt.Errorf("replicate: primary answered %s", resp.Status)
	}
	hdr, err := store.ReadShipHeader(resp.Body)
	if err != nil {
		return from, err
	}
	if hdr.SnapLSN != from || hdr.SnapBytes != 0 {
		return from, fmt.Errorf("%w: tail stream header (snap %d bytes %d) for from=%d",
			store.ErrCorrupt, hdr.SnapLSN, hdr.SnapBytes, from)
	}
	f.observePrimary(hdr.TailLSN)
	return f.applyTail(ix, hdr, resp.Body, from, live)
}

// followLoop polls the primary for new records. A pruned tail (410)
// triggers a clean re-bootstrap: the fresh index is swapped in under the
// write lock and the old mapping released, with queries never observing an
// intermediate state.
func (f *Follower) followLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.opts.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-f.done:
			return
		case <-t.C:
		}
		f.mu.RLock()
		ix := f.ix
		f.mu.RUnlock()
		from := f.applied.Load()
		last, err := f.fetchTail(ix, from, true)
		switch {
		case err == nil:
			if n := last - from; n > 0 {
				f.log.Debug("replicate: applied tail", "records", n,
					"chunks", (n+tailChunk-1)/tailChunk, "appliedLsn", last)
			}
		case errors.Is(err, store.ErrShipGap):
			f.state.Store("rebootstrapping")
			f.log.Warn("replicate: primary pruned past our LSN; re-bootstrapping")
			f.rebootstrap()
			f.state.Store("following")
		case errors.Is(err, errDiverged):
			// The served index has records the primary never acknowledged
			// (a chunk applied past the point of divergence); only a fresh
			// ship restores it to an exact prefix of the primary's history.
			f.state.Store("rebootstrapping")
			f.log.Error("replicate: replay diverged; re-bootstrapping", "err", err)
			f.rebootstrap()
			f.state.Store("following")
		default:
			// Transient: connectivity, primary restarting, a torn batch.
			// The index is consistent at applied; try again next tick.
			f.log.Warn("replicate: follow poll failed", "err", err)
		}
	}
}

// rebootstrap replaces the served index with a freshly shipped one. The
// stale index keeps serving (at its stale applied LSN) until the fresh
// one is fully consistent; install swaps atomically under the write lock.
func (f *Follower) rebootstrap() {
	root := f.beginTrace()
	fresh, last, err := f.fullBootstrap()
	f.endTrace(root, err)
	if err != nil {
		f.log.Error("replicate: re-bootstrap failed; serving stale index", "err", err)
		return
	}
	f.install(fresh, last)
	f.log.Info("replicate: re-bootstrapped", "appliedLsn", last)
}

// Index returns the currently served index; callers must hold Mutex.
func (f *Follower) Index() *tlx.Index { return f.ix }

// Mutex guards the index between the serve layer and the follow loop.
func (f *Follower) Mutex() *sync.RWMutex { return &f.mu }

// AppliedLSN is the LSN the local index reflects.
func (f *Follower) AppliedLSN() uint64 { return f.applied.Load() }

// PrimaryLSN is the primary's last observed applied LSN.
func (f *Follower) PrimaryLSN() uint64 { return f.primary.Load() }

// PrimaryURL is the primary this follower tracks.
func (f *Follower) PrimaryURL() string { return f.opts.PrimaryURL }

// StateName is the state machine's current state.
func (f *Follower) StateName() string { return f.state.Load().(string) }

// Close stops the follow loop and releases the snapshot mapping.
func (f *Follower) Close() error {
	f.once.Do(func() { close(f.done) })
	f.wg.Wait()
	f.state.Store("stopped")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ix == nil {
		return nil
	}
	return f.ix.Close()
}

// pruneLocal keeps only the snapshot at keep, deleting older downloads.
func (f *Follower) pruneLocal(keep uint64) {
	entries, err := os.ReadDir(f.opts.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if lsn, ok := parseSnapshotName(e.Name()); ok && lsn != keep {
			// The mmap outlives the unlink; removal is safe even for the
			// snapshot an old index still maps.
			os.Remove(filepath.Join(f.opts.Dir, e.Name()))
		}
	}
}
