// Package store makes a served τ-LevelIndex durable: every accepted insert
// is appended to a CRC-checked write-ahead log and fsync'd before it is
// acknowledged, the full index is periodically captured in atomic snapshots
// via its binary serialization, and opening a data directory recovers the
// exact pre-crash state by loading the newest valid snapshot and replaying
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
//	<dir>/snapshot-<LSN>.idx   index serialization (X3, self-checksummed)
//	<dir>/wal-<base>.log       records base+1.. (see wal.go for the format)
//
// The two newest snapshots are retained: if the newest is corrupt (torn
// rename, bit rot), recovery falls back to the previous one and replays a
// correspondingly longer WAL suffix. Segments are rotated at each snapshot
// and pruned once no retained snapshot needs them.
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
	"errors"
	"fmt"
	"log/slog"
	"os"
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
	// SnapshotBytes triggers an automatic background snapshot once the WAL
	// holds at least this many record bytes since the last snapshot.
	// Zero or negative disables the byte trigger.
	SnapshotBytes int64
	// SnapshotRecords triggers an automatic background snapshot once the
	// WAL holds at least this many records since the last snapshot.
	// Zero or negative disables the record trigger.
	SnapshotRecords int
	// SnapshotInterval triggers an automatic background snapshot whenever
	// the newest snapshot is older than this, even if no insert tripped the
	// byte or record thresholds — a quiet primary still folds its last
	// few records into a snapshot, so a restart replays none. Zero
	// disables the timer.
	SnapshotInterval time.Duration
	// Logger receives recovery, snapshot, and WAL lifecycle events as
	// structured records; nil discards them.
	Logger *slog.Logger
}

// Store owns a durable index: the in-memory τ-LevelIndex plus its WAL and
// snapshots. All index access must go through the store's lock; the serve
// layer shares it via Mutex.
type Store struct {
	opts Options
	log  *slog.Logger

	mu      sync.RWMutex // guards ix, applied, seg, counters, failed, closed
	ix      *tlx.Index
	applied uint64 // LSN of the last record applied to ix
	// appliedA mirrors applied for lock-free readers. The serve layer reads
	// it on the query path while already holding mu (sync.RWMutex forbids
	// recursive RLock) and from cache lookups that must not contend with
	// writers at all. Written only while mu is held for writing.
	appliedA atomic.Uint64
	seg      *segment
	failed   error // a WAL write failed: memory and disk diverged, refuse writes
	closed   bool

	snapLSN        uint64
	snapTime       time.Time
	bytesSinceSnap int64
	recsSinceSnap  int

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

// Open recovers a Store from dir. An empty directory is initialized from
// build: the fresh index is captured as snapshot 0 so later restarts never
// rebuild. A non-empty directory ignores build entirely — state comes from
// the newest loadable snapshot plus the WAL tail. Open fails rather than
// serve a directory whose every snapshot is corrupt or whose WAL has lost
// acknowledged records anywhere but the torn tail.
func Open(opts Options, build func() (*tlx.Index, error)) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: no data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	s := &Store{
		opts:    opts,
		log:     opts.Logger,
		trigger: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	snaps, segs, err := scanDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 {
		if len(segs) > 0 {
			return nil, fmt.Errorf("%w: %s has WAL segments but no snapshot", ErrCorrupt, opts.Dir)
		}
		if build == nil {
			return nil, fmt.Errorf("store: %s is empty and no builder was given", opts.Dir)
		}
		if err := s.initialize(build); err != nil {
			return nil, err
		}
	} else if err := s.recover(snaps, segs); err != nil {
		return nil, err
	}
	if opts.SnapshotBytes > 0 || opts.SnapshotRecords > 0 || opts.SnapshotInterval > 0 {
		s.wg.Add(1)
		go s.autoSnapshotLoop()
	}
	registerStoreGauges(s)
	return s, nil
}

// initialize captures a freshly built index as snapshot 0 and opens the
// first WAL segment.
func (s *Store) initialize(build func() (*tlx.Index, error)) error {
	ix, err := build()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		return err
	}
	if _, err := writeSnapshot(s.opts.Dir, 0, buf.Bytes()); err != nil {
		return err
	}
	seg, err := createSegment(s.opts.Dir, 0)
	if err != nil {
		return err
	}
	s.ix, s.seg, s.snapTime, s.recoveredFrom = ix, seg, time.Now(), "initial build"
	snapshotBytes.Set(float64(buf.Len()))
	s.log.Info("store: initialized", "dir", s.opts.Dir, "snapshotLsn", 0, "snapshotBytes", buf.Len())
	return nil
}

// recover loads the newest valid snapshot and replays the WAL tail.
func (s *Store) recover(snaps, segs []fileEntry) error {
	for i := len(snaps) - 1; i >= 0; i-- {
		ix, err := s.loadSnapshot(snaps[i].path)
		if err != nil {
			s.log.Warn("store: snapshot unusable; falling back", "path", snaps[i].path, "err", err)
			s.fallbacks++
			continue
		}
		s.ix = ix
		s.applied = snaps[i].lsn
		s.appliedA.Store(snaps[i].lsn)
		s.snapLSN = snaps[i].lsn
		s.recoveredFrom = snaps[i].path
		if st, serr := os.Stat(snaps[i].path); serr == nil {
			s.snapTime = st.ModTime()
		}
		break
	}
	if s.ix == nil {
		return fmt.Errorf("%w: no loadable snapshot in %s", ErrCorrupt, s.opts.Dir)
	}
	// Replay every segment in LSN order. Records at or below the snapshot
	// LSN are already part of the loaded state and are skipped; a gap above
	// it means acknowledged records were lost — refuse to serve.
	for i, sg := range segs {
		last := i == len(segs)-1
		sd, err := readSegment(sg.path)
		if err != nil {
			if last && errors.Is(err, errShortHeader) {
				// Torn during creation: no record was ever acknowledged
				// into it. Replace it with a fresh segment below.
				s.log.Warn("store: removing segment torn at creation", "path", sg.path)
				os.Remove(sg.path)
				segs = segs[:i]
				break
			}
			return err
		}
		if sd.torn {
			if !last {
				s.log.Warn("store: sealed segment has a corrupt record", "path", sg.path)
			} else {
				s.log.Warn("store: truncating torn WAL tail", "path", sg.path, "validBytes", sd.validSize)
			}
		}
		// A segment's base is the snapshot LSN it was rotated at, so every
		// record up to base existed when it was created: starting past the
		// applied point means acknowledged records vanished (a corrupt
		// record inside an earlier sealed segment, or a pruning accident).
		if sd.base > s.applied {
			return fmt.Errorf("%w: WAL gap: applied through %d but segment %s begins at %d",
				ErrCorrupt, s.applied, sg.path, sd.base)
		}
		if err := s.replay(sd.records, sg.path); err != nil {
			return err
		}
		if last {
			seg, err := openSegmentForAppend(sg.path, sd.base, sd.validSize)
			if err != nil {
				return err
			}
			s.seg = seg
			s.bytesSinceSnap = sd.validSize - segHeaderSize
			s.recsSinceSnap = int(s.applied - s.snapLSN)
		}
	}
	if s.seg == nil {
		seg, err := createSegment(s.opts.Dir, s.applied)
		if err != nil {
			return err
		}
		s.seg = seg
	}
	s.log.Info("store: recovered", "dir", s.opts.Dir, "from", s.recoveredFrom,
		"replayed", s.replayed, "appliedLsn", s.applied, "fallbacks", s.fallbacks)
	return nil
}

// replay applies the records of one segment (read from path) that lie
// beyond the applied point as one InsertBatch: a batch that accepts
// anything is one rebuild of the index over the grown pool, so a tail costs
// one rebuild however long it is, and the result is the one the
// acknowledged inserts produced however they were batched. Records at or
// below the applied point are already part of the loaded state and are
// skipped; a gap above it means acknowledged records were lost. Every
// re-assigned id is checked against the id that was acknowledged.
func (s *Store) replay(recs []record, path string) error {
	var tail []record
	var attrs [][]float64
	for _, rec := range recs {
		through := s.applied + uint64(len(tail))
		if rec.lsn <= through {
			continue
		}
		if rec.lsn != through+1 {
			return fmt.Errorf("%w: WAL gap: applied through %d, next record %d (%s)",
				ErrCorrupt, through, rec.lsn, path)
		}
		tail, attrs = append(tail, rec), append(attrs, rec.attrs)
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
		s.applied++
		s.appliedA.Store(s.applied)
		s.replayed++
	}
	return nil
}

// loadSnapshot reads a snapshot onto the heap. The store is the writer: its
// first accepted insert rebuilds the cells anyway, and a mapping would keep
// Pts aliased to a file that pruning later unlinks.
func (s *Store) loadSnapshot(path string) (*tlx.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tlx.ReadIndex(f)
}

// Index returns the recovered index. The pointer is stable for the life of
// the store; all access must be synchronized via Mutex.
func (s *Store) Index() *tlx.Index { return s.ix }

// Mutex returns the lock guarding the index so the serve layer and the
// store serialize index access against each other.
func (s *Store) Mutex() *sync.RWMutex { return &s.mu }

// AppliedLSN returns the LSN of the last acknowledged insert without
// taking the store lock: one atomic load, safe to call while the caller
// already holds Mutex in either mode. It is the version stamp the serve
// layer pairs with cached answers and replica snapshots.
func (s *Store) AppliedLSN() uint64 { return s.appliedA.Load() }

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
	res := s.commit(&insertReq{opts: [][]float64{option}, start: time.Now(),
		done: make(chan insertGroupRes, 1)})
	if res.err != nil {
		return -1, s.appliedA.Load(), res.err
	}
	r := res.results[0]
	return r.ID, r.LSN, r.Err
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
// The records are written and fsync'd while the index rebuilds. The store
// lock is held across apply+log+fsync so snapshots can never capture
// records the device has not confirmed.
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
	next := s.applied
	var nbytes int64
	// The records are logged and fsync'd while the index rebuilds: once
	// the batch's ids are known, the WAL needs nothing else from the index.
	_, bstats, werr := s.ix.InsertBatchAlongside(all, func(results []tlx.InsertResult) error {
		var werr error
		for i, res := range results {
			if werr == nil && res.Err == nil && res.ID >= 0 {
				// Accepted or duplicate: exactly the options the sequential
				// path logs, so replay re-derives identical ids.
				next++
				n, e := s.seg.writeRecord(record{lsn: next, id: int64(res.ID), attrs: all[i]})
				if e != nil {
					werr = e
				}
				nbytes += int64(n)
			}
			items[i] = BatchResult{ID: res.ID, LSN: next, Err: res.Err}
		}
		if werr == nil && next > s.applied {
			werr = s.seg.sync()
		}
		return werr
	})
	if werr != nil {
		// The in-memory index has the group's options but the log does not;
		// any further write would make replay assign ids that contradict the
		// acknowledged ones. Fail the store for writes; nothing in this
		// group is acknowledged.
		s.failed = werr
		s.mu.Unlock()
		s.log.Error("store: WAL append failed, store is now read-only", "err", werr)
		deliverErr(group, fmt.Errorf("store: WAL append failed, store is now read-only: %v", werr))
		return
	}
	logged := int(next - s.applied)
	// One visibility bump for the whole group: caches and replicas see the
	// applied LSN jump from its old value to next in a single store.
	s.applied = next
	s.appliedA.Store(next)
	s.recsSinceSnap += logged
	s.bytesSinceSnap += nbytes
	trip := (s.opts.SnapshotRecords > 0 && s.recsSinceSnap >= s.opts.SnapshotRecords) ||
		(s.opts.SnapshotBytes > 0 && s.bytesSinceSnap >= s.opts.SnapshotBytes)
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

// Snapshot captures the current index state durably and rotates the WAL.
// When the newest snapshot already covers every applied record it returns
// immediately with UpToDate set.
func (s *Store) Snapshot() (SnapshotInfo, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SnapshotInfo{}, errors.New("store: closed")
	}
	lsn := s.applied
	if lsn == s.snapLSN {
		s.mu.Unlock()
		return SnapshotInfo{LSN: lsn, UpToDate: true}, nil
	}
	var buf bytes.Buffer
	if _, err := s.ix.WriteTo(&buf); err != nil {
		s.mu.Unlock()
		snapshotFailuresTotal.Inc()
		return SnapshotInfo{}, err
	}
	// Rotate under the write lock: the new segment's base equals the
	// serialized LSN exactly, which is what lets pruning reason about
	// segment contents from file names alone.
	newSeg, err := createSegment(s.opts.Dir, lsn)
	if err != nil {
		s.mu.Unlock()
		snapshotFailuresTotal.Inc()
		return SnapshotInfo{}, err
	}
	old := s.seg
	s.seg = newSeg
	s.bytesSinceSnap, s.recsSinceSnap = 0, 0
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}

	path, err := writeSnapshot(s.opts.Dir, lsn, buf.Bytes())
	if err != nil {
		// The rotation already happened; recovery simply replays through
		// the rotated segments from the previous snapshot.
		snapshotFailuresTotal.Inc()
		return SnapshotInfo{}, err
	}
	s.mu.Lock()
	s.snapLSN = lsn
	s.snapTime = time.Now()
	s.mu.Unlock()
	s.prune()
	took := time.Since(start)
	snapshotsTotal.Inc()
	snapshotSeconds.Observe(took.Seconds())
	snapshotBytes.Set(float64(buf.Len()))
	s.log.Info("store: snapshot taken", "lsn", lsn, "bytes", buf.Len(),
		"file", path, "tookMs", float64(took)/float64(time.Millisecond))
	return SnapshotInfo{
		LSN:    lsn,
		Bytes:  int64(buf.Len()),
		File:   path,
		TookMs: float64(took) / float64(time.Millisecond),
	}, nil
}

// prune deletes snapshots beyond the two newest and every WAL segment no
// retained snapshot could need. Failures are logged, not fatal: pruning
// reruns at the next snapshot.
func (s *Store) prune() {
	snaps, segs, err := scanDir(s.opts.Dir)
	if err != nil {
		s.log.Warn("store: prune scan failed", "err", err)
		return
	}
	if len(snaps) <= 2 {
		return
	}
	keepFrom := snaps[len(snaps)-2].lsn
	for _, sn := range snaps[:len(snaps)-2] {
		if err := os.Remove(sn.path); err != nil {
			s.log.Warn("store: prune failed", "path", sn.path, "err", err)
		}
	}
	// A segment with base b holds records b+1..b' only; once b' ≤ keepFrom
	// it cannot matter, and b' is the next segment's base.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].lsn <= keepFrom {
			if err := os.Remove(segs[i].path); err != nil {
				s.log.Warn("store: prune failed", "path", segs[i].path, "err", err)
			}
		}
	}
}

func (s *Store) autoSnapshotLoop() {
	defer s.wg.Done()
	// The interval timer fires unconditionally; Snapshot's up-to-date
	// early return makes ticks on a quiet store cost one lock acquisition.
	var tick <-chan time.Time
	if s.opts.SnapshotInterval > 0 {
		t := time.NewTicker(s.opts.SnapshotInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.done:
			return
		case <-s.trigger:
		case <-tick:
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
		AppliedLSN:        s.applied,
		SnapshotLSN:       s.snapLSN,
		SnapshotAgeSec:    time.Since(s.snapTime).Seconds(),
		WALRecords:        int(s.applied - s.snapLSN),
		WALBytes:          s.bytesSinceSnap,
		RecordsReplayed:   s.replayed,
		RecoveredFrom:     s.recoveredFrom,
		SnapshotFallbacks: s.fallbacks,
		ReadOnly:          s.failed != nil,
	}
}

// Close stops the background snapshotter, takes a final snapshot (so a
// clean stop never needs WAL replay), and releases the WAL file.
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
	if s.seg != nil {
		if cerr := s.seg.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.seg = nil
	}
	s.mu.Unlock()
	return err
}

// kill simulates a crash for tests: the background snapshotter stops and
// the WAL file handle is dropped with no final snapshot, leaving the data
// directory exactly as fsync has it.
func (s *Store) kill() {
	s.once.Do(func() { close(s.done) })
	s.wg.Wait()
	s.mu.Lock()
	s.closed = true
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
	}
	s.mu.Unlock()
}
