package serve

import (
	"net/http"
	"strconv"
	"sync"

	tlx "tlevelindex"
	"tlevelindex/internal/obs"
	"tlevelindex/internal/store"
)

// Backend is everything a Handler needs from what it serves: one published
// index with the version stamp every answer carries, and a write path.
// *store.Store is one; the memory-only and follower backends below are the
// other two. Everything else a deployment mode has — the store's admin
// endpoints, a follower's sync status — is routes and gauges its
// constructor attaches, not a branch in a shared handler.
type Backend interface {
	// Serving returns the serving index and the LSN it reflects, and done,
	// which the caller calls once it has answered from them. The index is
	// safe to read without any lock (no writer changes a published
	// version); whether the pair holds anything until done — the store's
	// read lock, which gives its writes priority — is the backend's own
	// policy.
	Serving() (ix *tlx.Index, lsn uint64, done func())
	// InsertBatchLSN applies a batch of options. Each logged record gets its
	// own LSN; filtered and failed items echo the last preceding one,
	// exactly as N single inserts would.
	InsertBatchLSN(opts [][]float64) ([]store.BatchResult, store.GroupStats, error)
}

// memBackend serves an index that lives only in this process: inserts are
// applied but lost on restart, and a counter of accepted inserts stands in
// for the store's applied LSN. A query holds mu's read side, so the stamp
// it reads is exactly the version it answers from.
type memBackend struct {
	mu     sync.RWMutex
	unlock func() // mu.RUnlock, bound once so Serving allocates nothing
	ix     *tlx.Index
	lsn    uint64 // written under mu's write side
}

func newMemBackend(ix *tlx.Index) *memBackend {
	m := &memBackend{ix: ix}
	m.unlock = m.mu.RUnlock
	return m
}

func (m *memBackend) Serving() (*tlx.Index, uint64, func()) {
	m.mu.RLock()
	return m.ix, m.lsn, m.unlock
}

// InsertBatchLSN applies the batch through the engine's amortized
// InsertBatch and advances the counter under the write lock, so readers
// see the stamp move once per batch instead of N times.
func (m *memBackend) InsertBatchLSN(opts [][]float64) ([]store.BatchResult, store.GroupStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	results, bs := m.ix.InsertBatch(opts)
	out := make([]store.BatchResult, len(results))
	logged := 0
	for i, res := range results {
		if res.Err == nil && res.ID >= 0 {
			m.lsn++
			logged++
		}
		out[i] = store.BatchResult{ID: res.ID, LSN: m.lsn, Err: res.Err}
	}
	return out, store.GroupStats{Requests: 1, Records: len(opts), Logged: logged, BatchInsertStats: bs}, nil
}

// Follower is a replica following a remote primary (internal/replicate
// implements it). The handler serves queries from the index it last
// installed, rejects writes toward the primary, and reports its sync state.
type Follower interface {
	// Serving returns the installed index and its LSN as one pair; a
	// follower holds no lock, so done only ends the read.
	Serving() (ix *tlx.Index, lsn uint64, done func())
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
// reporting the follow state, both LSNs and the lag between them, and the
// tlx_replica_lag gauge. GaugeFunc replaces the reader on re-registration,
// so the newest follower handler wins.
func (h *Handler) attachFollower(f Follower) *Handler {
	h.handle("/v1/admin/status", get(func(w http.ResponseWriter, r *http.Request) {
		applied, primary := f.AppliedLSN(), f.PrimaryLSN()
		writeJSON(w, http.StatusOK, struct {
			Role       string `json:"role"`
			State      string `json:"state"`
			Primary    string `json:"primary"`
			AppliedLSN uint64 `json:"appliedLsn"`
			PrimaryLSN uint64 `json:"primaryLsn"`
			LagLSNs    uint64 `json:"lagLsns"`
		}{"follower", f.StateName(), f.PrimaryURL(), applied, primary, lagLSNs(applied, primary)})
	}))
	obs.Default().GaugeFunc("tlx_replica_lag",
		"LSNs the follower trails the primary by (0 when caught up).",
		func() float64 { return float64(lagLSNs(f.AppliedLSN(), f.PrimaryLSN())) })
	return h
}

// attachStore adds the durable store's admin endpoints: snapshot now,
// durability status, and the replication feed followers install the index
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
	// The replication feed: the current index, serialized at the applied
	// LSN. A follower that sends ?from=<lsn> equal to that LSN gets the
	// header alone; any other from, or none, gets the whole index.
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
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := sess.WriteTo(w); err != nil {
			// Headers are out; the receiver detects the truncation through the
			// header's byte count. Log for the operator.
			h.log.Warn("serve: snapshot stream aborted", "err", err)
		}
	}))
	return h
}
