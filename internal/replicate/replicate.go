// Package replicate runs a follower replica: a process that serves the
// same index as a primary without ever building it. The follower installs
// the primary's serialized index (GET /v1/admin/snapshot/stream, see
// internal/store ship.go for the wire format), opens it zero-copy via mmap
// (a heap load where mmap is unavailable), and swaps it in. It then polls the primary with its
// applied LSN; once the primary has published a newer index, the next poll
// installs that index whole, skipping every publish in between.
//
// # State machine
//
//	bootstrapping → following
//
// Start returns only after the follower reaches "following": a complete
// index at the exact LSN the primary stamped it with. Nothing is served
// from a partial download: a corrupt stream during bootstrap deletes the
// download and re-fetches (up to Options.Retries), and a failed poll while
// following leaves the last good index serving for the next poll.
//
// # Crash safety
//
// Every fetched index is installed atomically (tmp file, fsync, rename)
// under the store's snapshot naming, so a follower killed mid-fetch leaves
// only an ignorable .tmp file beside its last good index. A restarted
// follower opens that index and asks the primary only for a newer one.
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
	// PollInterval is the follow-loop cadence; zero selects 250ms.
	PollInterval time.Duration
	// Retries bounds the re-fetch attempts when a shipped stream arrives
	// corrupt during bootstrap; zero selects 3.
	Retries int
	// Client issues the HTTP requests; nil uses http.DefaultClient.
	Client *http.Client
	// Logger receives follower lifecycle events; nil discards them.
	Logger *slog.Logger
	// Recorder, when non-nil, receives the bootstrap trace and its
	// download span. Share it with
	// the serve handler (serve.Config.Recorder) so a follower's
	// /v1/admin/trace shows its own bootstrap next to request traces.
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

	// mu guards ix: install swaps it under the write lock, the serve layer
	// queries under the read lock.
	mu sync.RWMutex
	ix *tlx.Index
	// applied and primary are atomics so status and gauges read them
	// without the lock. applied is also written under mu.
	applied atomic.Uint64
	primary atomic.Uint64
	state   atomic.Value // string

	// traceID is the bootstrap's trace id (atomic.Value of obs.TraceID),
	// readable by anyone; bsc/tracing are the bootstrap's span context and
	// are only touched by Start's caller.
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

// TraceID returns the bootstrap's trace id — the id to look up
// in the primary's (or, with a shared recorder, the follower's own)
// /v1/admin/trace. Zero before the bootstrap begins.
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
// local index is the primary's index at the primary's LSN — after a
// download, or after a local resume the primary confirms current — so the
// caller can hand it straight to the serve layer.
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
		if f.ix != nil {
			f.ix.Close()
		}
		return nil, err
	}
	f.state.Store("following")
	f.wg.Add(1)
	go f.followLoop()
	return f, nil
}

// bootstrap resumes from the newest loadable local index, if any, then
// fetches until the primary confirms or supplies the current one,
// re-fetching a stream that arrives corrupt. The whole bootstrap runs as
// one trace, propagated to the primary.
func (f *Follower) bootstrap() error {
	root := f.beginTrace()
	f.resumeLocal()
	err := f.fetch()
	for attempt := 1; attempt < f.opts.Retries && isCorruptStream(err); attempt++ {
		// A truncated or bit-flipped stream: nothing was installed, the
		// partial download is gone, fetch again.
		f.log.Warn("replicate: shipped stream corrupt; re-fetching", "attempt", attempt, "err", err)
		err = f.fetch()
	}
	if isCorruptStream(err) {
		err = fmt.Errorf("replicate: bootstrap failed after %d attempts: %w", f.opts.Retries, err)
	}
	f.endTrace(root, err)
	return err
}

// install publishes a complete index at lsn, releasing any predecessor.
func (f *Follower) install(ix *tlx.Index, lsn uint64) {
	f.mu.Lock()
	old := f.ix
	f.ix = ix
	f.applied.Store(lsn)
	f.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// resumeLocal installs the newest loadable local index, deleting leftover
// .tmp downloads and local files that no longer load.
func (f *Follower) resumeLocal() {
	entries, err := os.ReadDir(f.opts.Dir)
	if err != nil {
		return
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
		ix, err := tlx.OpenIndexFile(path)
		if err != nil {
			f.log.Warn("replicate: local snapshot unusable; removing", "path", path, "err", err)
			os.Remove(path)
			continue
		}
		f.install(ix, snaps[i].lsn)
		f.log.Info("replicate: resumed from local snapshot", "snapshotLsn", snaps[i].lsn)
		return
	}
}

// isCorruptStream reports whether a fetch failed on the stream's content
// (worth re-fetching) rather than on connectivity.
func isCorruptStream(err error) bool {
	return errors.Is(err, tlx.ErrBadFormat) || errors.Is(err, store.ErrCorrupt)
}

// fetch asks the primary for an index newer than the installed one and, if
// the primary has one, installs it: downloaded, opened, then swapped in. A
// primary at the follower's LSN answers with a header alone. Any error
// leaves the installed index serving. Only the goroutine that bootstraps
// and then follows calls it, so it reads f.ix without the lock.
func (f *Follower) fetch() error {
	url := f.opts.PrimaryURL + "/v1/admin/snapshot/stream"
	if f.ix != nil {
		url += "?from=" + strconv.FormatUint(f.applied.Load(), 10)
	}
	resp, err := f.get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replicate: primary answered %s", resp.Status)
	}
	hdr, err := store.ReadShipHeader(resp.Body)
	if err != nil {
		return err
	}
	f.primary.Store(hdr.LSN)
	if hdr.Bytes == 0 {
		if f.ix == nil || hdr.LSN != f.applied.Load() {
			return fmt.Errorf("%w: stream at LSN %d carries no index", store.ErrCorrupt, hdr.LSN)
		}
		return nil
	}
	dl := f.span("replicate.download")
	ix, err := f.download(hdr, resp.Body)
	dl.Set("indexBytes", float64(hdr.Bytes))
	f.finishSpan(dl, err)
	if err != nil {
		return err
	}
	f.install(ix, hdr.LSN)
	f.pruneLocal(hdr.LSN)
	f.log.Debug("replicate: installed index", "appliedLsn", hdr.LSN, "bytes", hdr.Bytes, "mmapBytes", ix.MmapBytes())
	return nil
}

// download streams the index bytes into the data directory with the
// store's tmp-fsync-rename discipline — a crash mid-download leaves a .tmp
// file the next start deletes, never a half index under the real name —
// and opens them. A file the X3 checksum rejects is removed, so neither a
// retry nor a restart can resume from it.
func (f *Follower) download(hdr store.ShipHeader, r io.Reader) (*tlx.Index, error) {
	final := filepath.Join(f.opts.Dir, snapshotName(hdr.LSN))
	tmp := final + ".tmp"
	file, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	n, err := io.Copy(file, io.LimitReader(r, hdr.Bytes))
	if err == nil && n != hdr.Bytes {
		err = fmt.Errorf("%w: index stream truncated at %d of %d bytes", store.ErrCorrupt, n, hdr.Bytes)
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
		return nil, err
	}
	ix, err := tlx.OpenIndexFile(final)
	if err != nil {
		os.Remove(final)
		return nil, err
	}
	return ix, nil
}

// followLoop polls the primary for a newer index each tick. A failed poll —
// connectivity, a primary restarting, a torn or corrupt stream — leaves
// the installed index serving, and the next tick tries again.
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
		if err := f.fetch(); err != nil {
			f.log.Warn("replicate: follow poll failed", "err", err)
		}
	}
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
