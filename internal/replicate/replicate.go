// Package replicate runs a follower replica: a process that serves the
// same index as a primary without ever building it. The follower installs
// the primary's serialized index (GET /v1/admin/snapshot/stream, see
// internal/store ship.go for the wire format), loads it onto the heap, and
// swaps it in. It then polls the primary with its applied LSN; once the
// primary has published a newer index, the next poll installs that index
// whole, skipping every publish in between.
//
// An install is one pointer store of the pair (index, LSN), and a query
// loads that pair once and holds no lock: an index it has loaded is never
// changed or released under it — the garbage collector frees an old index
// once its last query is done — so an install never waits for a reader,
// however long the reader keeps its index. That is why an install loads
// onto the heap rather than mapping its slot: the slot is overwritten two
// installs later, and nothing is ever unmapped under a reader.
//
// # State machine
//
//	bootstrapping → following
//
// Start returns only after the follower reaches "following": a complete
// index at the exact LSN the primary stamped it with. Nothing is served
// from a partial download: a corrupt stream during bootstrap is re-fetched
// (up to Options.Retries), and a failed poll while following leaves the
// last good index serving for the next poll.
//
// # Crash safety
//
// The data directory holds the store's two slot files (store.Slots): each
// fetched stream, header included, is written into the slot not holding
// the served index as it arrives, and fsync'd before the install. A
// follower killed mid-fetch leaves that slot torn beside its last good
// one; a restarted follower loads the newest slot that verifies and asks
// the primary only for a newer index. Nothing is renamed or unlinked.
package replicate

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
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
	// Dir is the local directory holding the two slots the downloaded
	// indexes are written into, so a restarted follower can resume without
	// re-shipping the whole index. It is created if missing.
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

	// cur is the installed index with the LSN it was installed at (a nil
	// index before the first install). An install is one store of it, made
	// only by the goroutine that bootstraps and follows.
	cur atomic.Pointer[installed]
	// slots is touched only by the goroutine that bootstraps and follows.
	slots   *store.Slots
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

// installed is one published version: an index and the LSN it reflects,
// swapped in together by one pointer store.
type installed struct {
	ix  *tlx.Index
	lsn uint64
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
		slots:  store.NewSlots(opts.Dir),
		done:   make(chan struct{}),
	}
	f.cur.Store(&installed{})
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

// bootstrap resumes from the newest local slot that verifies, if any, then
// fetches until the primary confirms or supplies the current one,
// re-fetching a stream that arrives corrupt. The whole bootstrap runs as
// one trace, propagated to the primary.
func (f *Follower) bootstrap() error {
	root := f.beginTrace()
	if ix, lsn, _ := f.slots.Load(f.log); ix != nil {
		f.cur.Store(&installed{ix, lsn})
		f.log.Info("replicate: resumed from local slot", "snapshotLsn", lsn)
	}
	err := f.fetch()
	for attempt := 1; attempt < f.opts.Retries && isCorruptStream(err); attempt++ {
		// A truncated or bit-flipped stream: nothing was installed, and the
		// slot it went into is still the spare, so fetch again.
		f.log.Warn("replicate: shipped stream corrupt; re-fetching", "attempt", attempt, "err", err)
		err = f.fetch()
	}
	if isCorruptStream(err) {
		err = fmt.Errorf("replicate: bootstrap failed after %d attempts: %w", f.opts.Retries, err)
	}
	f.endTrace(root, err)
	return err
}

// isCorruptStream reports whether a fetch failed on the stream's content
// (worth re-fetching) rather than on connectivity.
func isCorruptStream(err error) bool {
	return errors.Is(err, tlx.ErrBadFormat) || errors.Is(err, store.ErrCorrupt)
}

// fetch asks the primary for an index newer than the installed one and, if
// the primary has one, installs it: written into the spare slot, loaded,
// then swapped in. A primary at the follower's LSN answers with a header
// alone. Any error leaves the installed index serving. Only the goroutine
// that bootstraps and then follows calls it, and the only one that
// installs, so the pair it loads once stays the installed one throughout.
func (f *Follower) fetch() error {
	cur := f.cur.Load()
	url := f.opts.PrimaryURL + "/v1/admin/snapshot/stream"
	if cur.ix != nil {
		url += "?from=" + strconv.FormatUint(cur.lsn, 10)
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
		if cur.ix == nil || hdr.LSN != cur.lsn {
			return fmt.Errorf("%w: stream at LSN %d carries no index", store.ErrCorrupt, hdr.LSN)
		}
		return nil
	}
	// The stream goes into the spare slot as it arrives, and the index is
	// loaded from the bytes written. One the X3 checksum rejects leaves its
	// slot the spare: the next fetch overwrites it, and a restart skips it.
	dl := f.span("replicate.download")
	var ix *tlx.Index
	fsync, err := f.slots.Write(hdr, resp.Body, func(body []byte) (err error) {
		ix, err = tlx.ReadIndexBytes(body, false)
		return err
	})
	dl.Set("indexBytes", float64(hdr.Bytes))
	dl.Set("fsyncMs", float64(fsync)/float64(time.Millisecond))
	f.finishSpan(dl, err)
	if err != nil {
		return err
	}
	f.cur.Store(&installed{ix, hdr.LSN})
	f.log.Debug("replicate: installed index", "appliedLsn", hdr.LSN, "bytes", hdr.Bytes)
	return nil
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

// Serving returns the installed index and its LSN, loaded together. It
// holds nothing: done is a no-op, and an install proceeds however long the
// caller keeps the index.
func (f *Follower) Serving() (ix *tlx.Index, lsn uint64, done func()) {
	cur := f.cur.Load()
	return cur.ix, cur.lsn, func() {}
}

// AppliedLSN is the LSN the local index reflects; 0 before the first
// install.
func (f *Follower) AppliedLSN() uint64 { return f.cur.Load().lsn }

// PrimaryLSN is the primary's last observed applied LSN.
func (f *Follower) PrimaryLSN() uint64 { return f.primary.Load() }

// PrimaryURL is the primary this follower tracks.
func (f *Follower) PrimaryURL() string { return f.opts.PrimaryURL }

// StateName is the state machine's current state.
func (f *Follower) StateName() string { return f.state.Load().(string) }

// Close stops the follow loop. The installed index stays readable.
func (f *Follower) Close() error {
	f.once.Do(func() { close(f.done) })
	f.wg.Wait()
	f.state.Store("stopped")
	return nil
}
