// Package store makes a served τ-LevelIndex durable: every accepted insert
// is appended to a CRC-checked write-ahead log and fsync'd before it is
// acknowledged, the full index is periodically written into one of two slot
// files via its binary serialization, and opening a data directory recovers
// the exact pre-crash state by loading the newest valid slot and replaying
// the WAL tail.
//
// # Durability contract
//
// An insert acknowledged by Insert (non-negative id, nil error) survives
// any crash: its WAL record was fsync'd before Insert returned. An insert
// interrupted by a crash was never acknowledged, and recovery discards its
// torn record. Replay re-applies records through the same deterministic
// Insert path that produced them and cross-checks every re-assigned id
// against the acknowledged id stored in the record, so silent divergence is
// impossible — the recovered index is byte-identical to the pre-crash one.
//
// Writes commit in groups: concurrent Insert/InsertBatchLSN callers
// coalesce into one leader-driven commit that applies every option in one
// amortized index batch, lays down all WAL records, and pays the device a
// single fsync (see commit). The contract is unchanged — no caller is
// acknowledged before the fsync covering its own records returns — but N
// concurrent writers cost far fewer than N fsyncs, and a crash lands on a
// group boundary: either all of a group's records are durable or replay
// stops at the torn tail inside it, and every record past the last
// completed fsync was unacknowledged by construction.
//
// # File layout
//
//	<dir>/slot-a.idx, slot-b.idx   ship stream: header with LSN, then X3 (see slots.go)
//	<dir>/wal-a.log, wal-b.log     insert records, overwritten in place (see wal.go)
//
// Open creates whichever of the four is missing; after that nothing in the
// directory is created, renamed or unlinked. A snapshot overwrites the
// older slot in place and makes the other log the one appends go to,
// written again from offset 0. If the newest slot is corrupt (a write torn
// by a crash, bit rot), recovery falls back to the other one and replays
// the records of both logs past it. The store snapshots from a background
// goroutine once the WAL holds as many bytes since the newest slot as that
// slot does: a tail of any length replays as one rebuild, so the bound
// only caps the directory, at about four times the index (two slots, two
// logs of about a slot's worth each).
//
// # Limitations
//
// Only inserts are logged: queries only read the index (one with k > τ
// returns ErrBeyondTau), so the log holds every change the store makes. A
// recovered index does not retain the full dataset, so ExtendTau on it
// returns ErrNeedsFullData (the documented ReadIndex semantics).
package store

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	tlx "tlevelindex"
	"tlevelindex/internal/obs"
)

// Options configures a Store.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// Logger receives recovery, snapshot, and WAL lifecycle events as
	// structured records; nil discards them.
	Logger *slog.Logger
}

// Store owns a durable index: the in-memory τ-LevelIndex plus its WAL and
// slots. The index publishes each rebuilt version by one pointer store,
// and the store does that only after the WAL holds the version's records.
type Store struct {
	opts Options
	log  *slog.Logger

	// mu guards the logs, the counters, failed and closed, and holds the index
	// at exactly applied while a snapshot, a ship or a query (Serving)
	// reads it; the index itself needs no lock to be read. unlock is
	// mu.RUnlock, bound once so Serving allocates nothing.
	mu     sync.RWMutex
	unlock func()
	ix     *tlx.Index
	// applied is the LSN of the last record applied to ix. It is written
	// only under mu's write side, after the index version it covers is
	// published, and loaded by anyone: stable under either side of mu, and
	// lock-free for the metrics gauge and AppliedLSN.
	applied atomic.Uint64
	logs    [2]*walLog
	active  int   // the log appends go to
	failed  error // a WAL write failed: memory and disk diverged, refuse writes
	closed  bool

	slots     *Slots // written only under snapMu after Open
	snapLSN   uint64
	snapTime  time.Time
	slotBytes int64 // the newest slot's header and index bytes, the auto-snapshot threshold
	walBytes  int64 // WAL record bytes after the newest durable slot

	replayed      int
	recoveredFrom string
	fallbacks     int

	snapMu  sync.Mutex // serializes whole snapshot attempts
	trigger chan struct{}
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	// Group commit (see commit): pending insert requests queue under qmu;
	// whoever holds leaderMu drains the queue and commits the whole group
	// with one index batch apply and one WAL fsync.
	qmu      sync.Mutex
	queue    []*insertReq
	leaderMu sync.Mutex
}

// insertReq is one caller's pending insert work: a batch of options (a
// single Insert is a batch of one) and the channel its commit outcome is
// delivered on — strictly after the fsync covering its records returns.
type insertReq struct {
	opts  [][]float64
	start time.Time
	done  chan insertGroupRes
}

// insertGroupRes is the commit outcome delivered to one caller: its
// per-option results plus the stats of the group it rode in. err is a
// store-level failure (closed, read-only, WAL error) voiding the whole
// group; per-option failures live in results[i].Err.
type insertGroupRes struct {
	results []BatchResult
	stats   GroupStats
	err     error
}

// BatchResult is the outcome of one option of a batch insert: the dataset
// id it resolved to (-1 when filtered or errored), the LSN stamping it (for
// filtered or errored options, the LSN of the last preceding accepted
// record — the version a reader must be at to observe this item's
// non-effect), and its per-option error.
type BatchResult struct {
	ID  int
	LSN uint64
	Err error
}

// GroupStats describes the commit group a request rode in: how many caller
// requests and options were coalesced, how many records were logged under
// the group's single fsync, and the engine's amortized maintenance times.
type GroupStats struct {
	// Requests is the number of concurrent callers coalesced into the group.
	Requests int
	// Records is the total option count across the group.
	Records int
	// Logged counts options that were appended to the WAL (accepted by the
	// index or resolved to a duplicate — exactly the records replay will
	// re-apply). The group paid one fsync for all of them.
	Logged int
	// BatchInsertStats is the engine's report of the one batch the whole
	// group was applied as: how many options it accepted and the wall time
	// of the rebuild they caused (FinalizeNS).
	tlx.BatchInsertStats
}

// oldLayouts are the files of the layouts before the two slots and the two
// logs. Open refuses a directory holding them rather than read it or build
// over it.
var oldLayouts = [...]struct{ glob, files, now string }{
	{"snapshot-*.idx", "snapshot-<LSN>.idx files", "slot-a.idx and slot-b.idx"},
	{"wal-" + strings.Repeat("[0-9]", 20) + ".log", "wal-<LSN>.log segments", "wal-a.log and wal-b.log"},
}

// Open recovers a Store from dir. A directory with no loadable slot and no
// WAL record has acknowledged nothing and is initialized from build: the
// fresh index is written as the slot at LSN 0 so later restarts never
// rebuild. Otherwise build is ignored — state comes from the newest
// loadable slot plus the WAL past it. Open fails rather than serve a
// directory whose slots are both corrupt beside WAL records, or whose WAL
// has lost acknowledged records anywhere but a torn tail.
func Open(opts Options, build func() (*tlx.Index, error)) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: no data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	for _, old := range oldLayouts {
		if m, _ := filepath.Glob(filepath.Join(opts.Dir, old.glob)); len(m) > 0 {
			return nil, fmt.Errorf("store: %s holds %s, a layout this store no longer reads "+
				"(it keeps %s); bootstrap a follower from the old primary and open its directory", opts.Dir, old.files, old.now)
		}
	}
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	s := &Store{
		opts:    opts,
		log:     opts.Logger,
		slots:   NewSlots(opts.Dir),
		trigger: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	s.unlock = s.mu.RUnlock
	runs, err := s.openFiles()
	if err == nil {
		ix, lsn, skipped := s.slots.Load(s.log)
		switch {
		case ix != nil:
			err = s.recover(ix, lsn, skipped, slices.Concat(runs[0], runs[1]))
		case len(runs[0])+len(runs[1]) > 0:
			err = fmt.Errorf("%w: %s has WAL records but no loadable slot", ErrCorrupt, opts.Dir)
		case build == nil:
			err = fmt.Errorf("store: %s holds no index and no builder was given", opts.Dir)
		default:
			err = s.initialize(build)
		}
	}
	if err != nil {
		s.closeLogs()
		return nil, err
	}
	s.wg.Add(1)
	go s.autoSnapshotLoop()
	registerStoreGauges(s)
	return s, nil
}

// openFiles creates whichever of the two slots and the two logs is
// missing, fsyncing the directory once after, so that the directory holds
// the same four files from here on. It opens both logs and returns their
// runs.
func (s *Store) openFiles() (runs [2][]record, err error) {
	created := false
	for i := range slotNames {
		f, c, err := openFile(s.slots.path(i), os.O_WRONLY)
		if err != nil {
			return runs, err
		}
		f.Close()
		created = created || c
	}
	for i, name := range logNames {
		var c bool
		if s.logs[i], runs[i], c, err = openLog(filepath.Join(s.opts.Dir, name)); err != nil {
			return runs, err
		}
		created = created || c
	}
	if created {
		err = syncDir(s.opts.Dir)
	}
	return runs, err
}

// clearStale zeroes what follows each log's run. Open calls it only once it
// has decided to serve the directory, so a directory it refuses keeps every
// byte it held.
func (s *Store) clearStale() error {
	for _, l := range s.logs {
		if err := l.clearStale(s.log); err != nil {
			return err
		}
	}
	return nil
}

// closeLogs closes the log files that are open.
func (s *Store) closeLogs() error {
	var err error
	for i, l := range s.logs {
		if l != nil {
			if cerr := l.f.Close(); err == nil {
				err = cerr
			}
			s.logs[i] = nil
		}
	}
	return err
}

// initialize writes a freshly built index as the slot at LSN 0. The logs'
// runs are empty, and appends start at the first.
func (s *Store) initialize(build func() (*tlx.Index, error)) error {
	if err := s.clearStale(); err != nil {
		return err
	}
	ix, err := build()
	if err != nil {
		return err
	}
	buf, err := ix.AppendBinary(nil)
	if err != nil {
		return err
	}
	if _, err := s.slots.Write(ShipHeader{Bytes: int64(len(buf))}, bytes.NewReader(buf), nil); err != nil {
		return err
	}
	s.ix, s.snapTime, s.recoveredFrom = ix, time.Now(), "initial build"
	s.slotBytes = s.slots.NewestBytes()
	snapshotBytes.Set(float64(len(buf)))
	s.log.Info("store: initialized", "dir", s.opts.Dir, "snapshotLsn", 0, "snapshotBytes", len(buf))
	return nil
}

// recover takes the index the newest loadable slot holds at lsn, after
// skipping skipped slots that did not verify, and replays the records of
// both logs' runs past it.
func (s *Store) recover(ix *tlx.Index, lsn uint64, skipped int, recs []record) error {
	s.ix, s.snapLSN = ix, lsn
	s.applied.Store(lsn)
	s.recoveredFrom, s.fallbacks = s.slots.Newest(), skipped
	s.slotBytes = s.slots.NewestBytes()
	if st, err := os.Stat(s.recoveredFrom); err == nil {
		s.snapTime = st.ModTime()
	}
	slices.SortFunc(recs, func(a, b record) int { return cmp.Compare(a.lsn, b.lsn) })
	if err := s.replay(recs); err != nil {
		return err
	}
	applied := s.applied.Load()
	// A slot is written only at an LSN whose records are all durable, so a
	// slot header that verifies past the applied point, even over a torn
	// or rotted body, means acknowledged records were lost.
	for i := range slotNames {
		if h, err := s.slots.header(i); err == nil && h.LSN > applied {
			return fmt.Errorf("%w: WAL gap: %s was written at LSN %d, but the WAL reaches only %d",
				ErrCorrupt, s.slots.path(i), h.LSN, applied)
		}
	}
	if err := s.clearStale(); err != nil {
		return err
	}
	// Append to the log whose run ends at the applied LSN. When neither
	// does, nothing was replayed and both runs are at or below the slot's
	// LSN: the one that ends lower is recycled.
	l := s.logs
	if l[0].last != applied && (l[1].last == applied || l[1].last < l[0].last) {
		s.active = 1
	}
	if l[s.active].last != applied {
		l[s.active].recycle()
	}
	s.log.Info("store: recovered", "dir", s.opts.Dir, "from", s.recoveredFrom,
		"replayed", s.replayed, "appliedLsn", applied, "fallbacks", s.fallbacks)
	return nil
}

// replay applies the records, in LSN order, that lie beyond the applied
// point as one InsertBatch: a batch that accepts anything is one rebuild of
// the index over the grown pool, so a tail costs one rebuild however long
// it is, and the result is the one the acknowledged inserts produced
// however they were batched. Records at or below the applied point are
// already part of the loaded state and are skipped; a gap above it means
// acknowledged records were lost. Every re-assigned id is checked against
// the id that was acknowledged.
func (s *Store) replay(recs []record) error {
	var tail []record
	var attrs [][]float64
	for _, rec := range recs {
		through := s.applied.Load() + uint64(len(tail))
		if rec.lsn <= through {
			continue
		}
		if rec.lsn != through+1 {
			return fmt.Errorf("%w: WAL gap: applied through %d, next record %d",
				ErrCorrupt, through, rec.lsn)
		}
		tail, attrs = append(tail, rec), append(attrs, rec.attrs)
		s.walBytes += recordSize(rec)
	}
	if len(tail) == 0 {
		return nil
	}
	results, _ := s.ix.InsertBatch(attrs)
	for i, res := range results {
		rec := tail[i]
		if res.Err != nil {
			return fmt.Errorf("store: replay of record %d failed: %v", rec.lsn, res.Err)
		}
		if int64(res.ID) != rec.id {
			return fmt.Errorf("%w: replay diverged at record %d: re-assigned id %d, acknowledged id %d",
				ErrCorrupt, rec.lsn, res.ID, rec.id)
		}
		s.applied.Add(1)
		s.replayed++
	}
	return nil
}

// Index returns the recovered index. The pointer is stable for the life of
// the store, and its queries are safe alongside the store's writes: each
// answers from one published version.
func (s *Store) Index() *tlx.Index { return s.ix }

// Serving returns the index and the LSN it reflects under the store's read
// lock, and done, which releases it. The index is safe to read without the
// lock; what holding it buys is writer priority: a group commit waits for
// the reads in flight, and new reads wait for it, so its WAL fsync returns
// without queueing behind running queries (DESIGN §11). The LSN cannot
// move before done is called. Serving allocates nothing.
func (s *Store) Serving() (ix *tlx.Index, lsn uint64, done func()) {
	s.mu.RLock()
	return s.ix, s.applied.Load(), s.unlock
}

// AppliedLSN returns the LSN of the last acknowledged insert without
// taking the store lock: one atomic load.
func (s *Store) AppliedLSN() uint64 { return s.applied.Load() }

// Insert applies an option to the index and, if it was accepted, makes it
// durable before acknowledging: the WAL record is fsync'd before Insert
// returns. Filtered options (id -1) change nothing and are not logged.
func (s *Store) Insert(option []float64) (int, error) {
	id, _, err := s.InsertLSN(option)
	return id, err
}

// InsertLSN is Insert also reporting the LSN of the accepted record — the
// exact version stamp of this insert, not whatever the store has applied
// by return time. A filtered option reports the unchanged current LSN.
//
// Concurrent callers coalesce: each call commits as a group of one or more
// requests sharing a single WAL fsync (see commit), so N writers cost far
// fewer than N fsyncs while every acknowledgement still waits for the
// fsync covering its own record.
func (s *Store) InsertLSN(option []float64) (int, uint64, error) {
	res, _, err := s.InsertBatchLSN([][]float64{option})
	if err != nil {
		return -1, s.applied.Load(), err
	}
	return res[0].ID, res[0].LSN, res[0].Err
}

// InsertBatchLSN applies a whole batch of options under one lock hold —
// one amortized index batch apply, one group of WAL appends, one fsync —
// and reports a per-option BatchResult in input order plus the stats of
// the commit group the batch rode in. The returned error is a store-level
// failure (closed, read-only, WAL write error) voiding every item;
// per-option rejections are reported in their BatchResult only.
func (s *Store) InsertBatchLSN(options [][]float64) ([]BatchResult, GroupStats, error) {
	if len(options) == 0 {
		return nil, GroupStats{}, nil
	}
	res := s.commit(&insertReq{opts: options, start: time.Now(),
		done: make(chan insertGroupRes, 1)})
	return res.results, res.stats, res.err
}

// commit runs the leader/follower group-commit protocol: the request joins
// the pending queue, then contends for leadership. The leader drains the
// queue and commits everyone's records together (processGroup); followers
// simply find their outcome already delivered when they next hold the
// leader slot. No outcome is delivered before the fsync covering its
// records returns, so an acknowledged insert is always durable.
func (s *Store) commit(req *insertReq) insertGroupRes {
	s.qmu.Lock()
	s.queue = append(s.queue, req)
	s.qmu.Unlock()
	s.leaderMu.Lock()
	select {
	case res := <-req.done:
		// A previous leader drained us into its group and committed it.
		s.leaderMu.Unlock()
		return res
	default:
	}
	s.qmu.Lock()
	group := s.queue
	s.queue = nil
	s.qmu.Unlock()
	s.processGroup(group)
	s.leaderMu.Unlock()
	return <-req.done
}

// processGroup commits one group: a single index batch apply, one WAL
// record per logged option at consecutive LSNs, one fsync, then delivery.
// The records are written and fsync'd while the next index version builds,
// and that version is published only once the fsync has returned, so no
// reader and no snapshot sees a record the device has not confirmed. The
// store lock is held across apply+log+fsync+publish.
func (s *Store) processGroup(group []*insertReq) {
	total := 0
	for _, r := range group {
		total += len(r.opts)
	}
	all := make([][]float64, 0, total)
	for _, r := range group {
		all = append(all, r.opts...)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		deliverErr(group, errors.New("store: closed"))
		return
	}
	if s.failed != nil {
		err := fmt.Errorf("store: read-only after WAL failure: %v", s.failed)
		s.mu.Unlock()
		deliverErr(group, err)
		return
	}
	items := make([]BatchResult, total)
	base := s.applied.Load()
	next := base
	var nbytes int64
	wal := s.logs[s.active]
	// The records are logged and fsync'd while the index rebuilds: once
	// the batch's ids are known, the WAL needs nothing else from the index.
	_, bstats, werr := s.ix.InsertBatchAlongside(all, func(results []tlx.InsertResult) error {
		var werr error
		for i, res := range results {
			if werr == nil && res.Err == nil && res.ID >= 0 {
				// Accepted or duplicate: exactly the options the sequential
				// path logs, so replay re-derives identical ids.
				next++
				n, e := wal.writeRecord(record{lsn: next, id: int64(res.ID), attrs: all[i]})
				if e != nil {
					werr = e
				}
				nbytes += int64(n)
			}
			items[i] = BatchResult{ID: res.ID, LSN: next, Err: res.Err}
		}
		if werr == nil && next > base {
			werr = wal.sync()
		}
		return werr
	})
	if werr != nil {
		// The index dropped the group's version, but the log may hold a
		// part of its records, which a later write would follow and replay
		// would re-apply. Fail the store for writes; nothing in this group
		// is acknowledged or visible.
		s.failed = werr
		s.mu.Unlock()
		s.log.Error("store: WAL append failed, store is now read-only", "err", werr)
		deliverErr(group, fmt.Errorf("store: WAL append failed, store is now read-only: %v", werr))
		return
	}
	logged := int(next - base)
	// One visibility bump for the whole group: readers and followers see the
	// applied LSN jump from its old value to next in a single store.
	s.applied.Store(next)
	s.walBytes += nbytes
	// Snapshot each time the WAL past the newest slot grows by that slot's
	// size: once, and again for each further slot's worth while snapshots
	// fail.
	per := max(s.slotBytes, 1)
	trip := (s.walBytes-nbytes)/per < s.walBytes/per
	s.mu.Unlock()
	if logged > 0 {
		walGroupSize.Observe(float64(logged))
	}
	stats := GroupStats{Requests: len(group), Records: total, Logged: logged, BatchInsertStats: bstats}
	now := time.Now()
	off := 0
	for _, r := range group {
		res := items[off : off+len(r.opts)]
		// Ack latency keeps the sequential path's meaning: only requests
		// that actually logged a record observe (filtered and rejected
		// inserts never paid for an append or fsync).
		for _, it := range res {
			if it.Err == nil && it.ID >= 0 {
				walAckSeconds.Observe(now.Sub(r.start).Seconds())
				break
			}
		}
		r.done <- insertGroupRes{results: res, stats: stats}
		off += len(r.opts)
	}
	if trip {
		select {
		case s.trigger <- struct{}{}:
		default:
		}
	}
}

// deliverErr voids a whole group with one store-level error.
func deliverErr(group []*insertReq, err error) {
	for _, r := range group {
		r.done <- insertGroupRes{err: err}
	}
}

// SnapshotInfo describes one snapshot attempt.
type SnapshotInfo struct {
	LSN      uint64  `json:"lsn"`
	Bytes    int64   `json:"bytes"`
	File     string  `json:"file"`
	TookMs   float64 `json:"tookMs"`
	UpToDate bool    `json:"upToDate"`
}

// Snapshot writes the current index into the older slot and rotates the
// WAL. When the newest slot already covers every applied record it returns
// immediately with UpToDate set. A failed snapshot changes no slot the
// store relies on, and the logs keep every record past the newest durable
// slot, so inserts go on being acknowledged. Until a later snapshot
// succeeds the store relies on the newest slot alone: a failed write may
// have torn the spare, and the rotation recycled the records its index
// needed.
func (s *Store) Snapshot() (SnapshotInfo, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SnapshotInfo{}, errors.New("store: closed")
	}
	lsn := s.applied.Load()
	if lsn == s.snapLSN {
		s.mu.Unlock()
		return SnapshotInfo{LSN: lsn, UpToDate: true}, nil
	}
	buf, err := s.ix.AppendBinary(nil)
	if err != nil {
		s.mu.Unlock()
		snapshotFailuresTotal.Inc()
		return SnapshotInfo{}, err
	}
	// Rotate under the write lock, with no I/O: the other log becomes the
	// active one, written from offset 0, only if every record of its run
	// is at or below snapLSN, the LSN of the slot this snapshot keeps.
	// Otherwise — after a failed slot write — the active log stays, so a
	// failure never recycles records the surviving slot needs.
	if next := 1 - s.active; s.logs[next].last <= s.snapLSN {
		s.logs[next].recycle()
		s.active = next
	}
	captured := s.walBytes
	s.mu.Unlock()

	if _, err := s.slots.Write(ShipHeader{LSN: lsn, Bytes: int64(len(buf))}, bytes.NewReader(buf), nil); err != nil {
		snapshotFailuresTotal.Inc()
		return SnapshotInfo{}, err
	}
	path := s.slots.Newest()
	s.mu.Lock()
	s.snapLSN = lsn
	s.snapTime = time.Now()
	s.slotBytes = s.slots.NewestBytes()
	// The bytes captured are the records up to lsn; what came after stays.
	s.walBytes -= captured
	s.mu.Unlock()
	took := time.Since(start)
	snapshotsTotal.Inc()
	snapshotSeconds.Observe(took.Seconds())
	snapshotBytes.Set(float64(len(buf)))
	s.log.Info("store: snapshot taken", "lsn", lsn, "bytes", len(buf),
		"file", path, "tookMs", float64(took)/float64(time.Millisecond))
	return SnapshotInfo{
		LSN:    lsn,
		Bytes:  int64(len(buf)),
		File:   path,
		TookMs: float64(took) / float64(time.Millisecond),
	}, nil
}

// autoSnapshotLoop snapshots each time processGroup finds the WAL bytes
// since the newest slot grown by that slot's size.
func (s *Store) autoSnapshotLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.trigger:
		}
		if _, err := s.Snapshot(); err != nil {
			s.log.Error("store: auto snapshot failed", "err", err)
		}
	}
}

// Status reports the store's durability state.
type Status struct {
	Dir               string  `json:"dir"`
	AppliedLSN        uint64  `json:"appliedLsn"`
	SnapshotLSN       uint64  `json:"snapshotLsn"`
	SnapshotAgeSec    float64 `json:"snapshotAgeSeconds"`
	WALRecords        int     `json:"walRecords"`
	WALBytes          int64   `json:"walBytes"`
	RecordsReplayed   int     `json:"recordsReplayed"`
	RecoveredFrom     string  `json:"recoveredFrom"`
	SnapshotFallbacks int     `json:"snapshotFallbacks"`
	ReadOnly          bool    `json:"readOnly"`
}

// Status returns a consistent view of the durability state.
func (s *Store) Status() Status {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Status{
		Dir:               s.opts.Dir,
		AppliedLSN:        s.applied.Load(),
		SnapshotLSN:       s.snapLSN,
		SnapshotAgeSec:    time.Since(s.snapTime).Seconds(),
		WALRecords:        int(s.applied.Load() - s.snapLSN),
		WALBytes:          s.walBytes,
		RecordsReplayed:   s.replayed,
		RecoveredFrom:     s.recoveredFrom,
		SnapshotFallbacks: s.fallbacks,
		ReadOnly:          s.failed != nil,
	}
}

// Close stops the background snapshotter, writes a final slot (so a clean
// stop never needs WAL replay), and releases the WAL files.
func (s *Store) Close() error {
	s.once.Do(func() { close(s.done) })
	s.wg.Wait()
	var err error
	s.mu.RLock()
	needsSnap := s.failed == nil && !s.closed
	s.mu.RUnlock()
	if needsSnap {
		if _, serr := s.Snapshot(); serr != nil {
			err = serr
		}
	}
	s.mu.Lock()
	s.closed = true
	if cerr := s.closeLogs(); err == nil {
		err = cerr
	}
	s.mu.Unlock()
	return err
}

// kill simulates a crash for tests: the background snapshotter stops and
// the WAL file handles are dropped with no final snapshot, leaving the data
// directory exactly as fsync has it.
func (s *Store) kill() {
	s.once.Do(func() { close(s.done) })
	s.wg.Wait()
	s.mu.Lock()
	s.closed = true
	s.closeLogs()
	s.mu.Unlock()
}
