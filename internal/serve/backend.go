package serve

import (
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	tlx "tlevelindex"
	"tlevelindex/internal/obs"
	"tlevelindex/internal/store"
)

// Backend is everything a Handler needs from what it serves: an index
// behind a lock, the version stamp answers are cached under, and a write
// path. *store.Store is one; the memory-only and follower backends below
// are the other two. Everything else a deployment mode has — the store's
// admin endpoints, a follower's sync status — is routes and gauges its
// constructor attaches, not a branch in a shared handler.
type Backend interface {
	// Mutex guards the index: queries hold it for reading, inserts and a
	// follower's applies for writing.
	Mutex() *sync.RWMutex
	// Index returns the serving index. Call with Mutex held and do not keep
	// the pointer past the unlock: a follower's re-bootstrap swaps it.
	Index() *tlx.Index
	// AppliedLSN is the version the index reflects. It moves only under the
	// write lock, so it is stable while Mutex is held; it is an atomic load,
	// safe without the lock too.
	AppliedLSN() uint64
	// InsertBatchLSN applies a batch of options, taking the write lock
	// itself. Each logged record gets its own LSN; filtered and failed items
	// echo the last preceding one, exactly as N single inserts would.
	InsertBatchLSN(opts [][]float64) ([]store.BatchResult, store.GroupStats, error)
}

// memBackend serves an index that lives only in this process: inserts are
// applied but lost on restart, and a counter of accepted inserts stands in
// for the store's applied LSN.
type memBackend struct {
	mu  sync.RWMutex
	ix  *tlx.Index
	lsn atomic.Uint64
}

func (m *memBackend) Mutex() *sync.RWMutex { return &m.mu }
func (m *memBackend) Index() *tlx.Index    { return m.ix }
func (m *memBackend) AppliedLSN() uint64   { return m.lsn.Load() }

// InsertBatchLSN applies the batch through the engine's amortized
// InsertBatch and publishes the advanced counter once at the end, so
// concurrent cached readers see one invalidation instead of N.
func (m *memBackend) InsertBatchLSN(opts [][]float64) ([]store.BatchResult, store.GroupStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	results, bs := m.ix.InsertBatch(opts)
	out := make([]store.BatchResult, len(results))
	lsn := m.lsn.Load()
	logged := 0
	for i, res := range results {
		if res.Err == nil && res.ID >= 0 {
			lsn++
			logged++
		}
		out[i] = store.BatchResult{ID: res.ID, LSN: lsn, Err: res.Err}
	}
	m.lsn.Store(lsn)
	return out, store.GroupStats{Requests: 1, Records: len(opts), Logged: logged, BatchInsertStats: bs}, nil
}

// Follower is a replica following a remote primary (internal/replicate
// implements it). The handler serves queries from its index under its
// lock, rejects writes toward the primary, and reports its sync state.
// Index is read under the follower's Mutex: a re-bootstrap may swap the
// index pointer.
type Follower interface {
	// Index returns the currently served index; call with Mutex held.
	Index() *tlx.Index
	// Mutex guards the index against the follow loop's applies and swaps.
	Mutex() *sync.RWMutex
	// AppliedLSN is the LSN the local index reflects (atomic, lock-free).
	AppliedLSN() uint64
	// PrimaryLSN is the primary's last observed applied LSN (atomic).
	PrimaryLSN() uint64
	// PrimaryURL is the primary's base URL, for redirecting writes.
	PrimaryURL() string
	// StateName is the bootstrap state machine's current state.
	StateName() string
}

// followerBackend is a Follower with the write path closed: its state is a
// strict copy of the primary's history, and a local insert would fork it.
type followerBackend struct{ Follower }

func (f followerBackend) InsertBatchLSN([][]float64) ([]store.BatchResult, store.GroupStats, error) {
	return nil, store.GroupStats{}, &readOnlyError{
		"follower is read-only; insert on the primary", f.PrimaryURL()}
}

// readOnlyError refuses a write on a follower. It is its own 403 body: the
// usual error envelope plus the primary to write to.
type readOnlyError struct {
	Msg     string `json:"error"`
	Primary string `json:"primary"`
}

func (e *readOnlyError) Error() string { return e.Msg }

// lagLSNs is how many LSNs a follower at applied trails its primary by.
func lagLSNs(applied, primary uint64) uint64 {
	if primary <= applied {
		return 0
	}
	return primary - applied
}

// attachFollower adds what only a follower has: GET /v1/admin/status
// reporting the follow state, both LSNs, the lag between them and the index
// backing, and the tlx_replica_lag / tlx_mmap_bytes gauges. GaugeFunc
// replaces the reader on re-registration, so the newest follower handler
// wins.
func (h *Handler) attachFollower(f Follower) *Handler {
	mmapBytes := func() int64 {
		h.mu.RLock()
		defer h.mu.RUnlock()
		return f.Index().MmapBytes()
	}
	h.handle("/v1/admin/status", get(func(w http.ResponseWriter, r *http.Request) {
		applied, primary := f.AppliedLSN(), f.PrimaryLSN()
		backing, mapped := "heap", mmapBytes()
		if mapped > 0 {
			backing = "mmap"
		}
		writeJSON(w, http.StatusOK, struct {
			Role       string `json:"role"`
			State      string `json:"state"`
			Primary    string `json:"primary"`
			AppliedLSN uint64 `json:"appliedLsn"`
			PrimaryLSN uint64 `json:"primaryLsn"`
			LagLSNs    uint64 `json:"lagLsns"`
			Backing    string `json:"backing"`
			MmapBytes  int64  `json:"mmapBytes"`
		}{"follower", f.StateName(), f.PrimaryURL(), applied, primary, lagLSNs(applied, primary), backing, mapped})
	}))
	obs.Default().GaugeFunc("tlx_replica_lag",
		"LSNs the follower trails the primary by (0 when caught up).",
		func() float64 { return float64(lagLSNs(f.AppliedLSN(), f.PrimaryLSN())) })
	obs.Default().GaugeFunc("tlx_mmap_bytes",
		"Bytes of index state aliasing a snapshot memory mapping (0 = heap-backed).",
		func() float64 { return float64(mmapBytes()) })
	return h
}

// attachStore adds the durable store's admin endpoints: snapshot now,
// durability status, and the replication feed followers bootstrap and tail
// from.
func (h *Handler) attachStore(st *store.Store) *Handler {
	h.handle("/v1/admin/snapshot", post(func(w http.ResponseWriter, r *http.Request) {
		info, err := st.Snapshot()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	}))
	h.handle("/v1/admin/status", get(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Role string `json:"role"`
			store.Status
		}{"primary", st.Status()})
	}))
	// The replication feed. Without a from parameter it ships a full
	// bootstrap — the newest durable snapshot plus the WAL tail beyond it;
	// with ?from=<lsn> only the records after that LSN. A follower whose from
	// has been pruned away gets 410 Gone and must re-bootstrap from scratch.
	h.handle("/v1/admin/snapshot/stream", get(func(w http.ResponseWriter, r *http.Request) {
		from := int64(-1)
		if s := r.URL.Query().Get("from"); s != "" {
			v, err := strconv.ParseUint(s, 10, 63)
			if err != nil {
				badRequest(w, "bad integer parameter %q", "from")
				return
			}
			from = int64(v)
		}
		sess, err := st.PrepareShip(from)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, store.ErrShipGap) {
				status = http.StatusGone
			}
			writeJSON(w, status, errorBody{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := sess.WriteTo(w); err != nil {
			// Headers are out; the receiver detects the truncation through the
			// stream checksums. Log for the operator.
			h.log.Warn("serve: snapshot stream aborted", "err", err)
		}
	}))
	return h
}
