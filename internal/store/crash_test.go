package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tlx "tlevelindex"
)

// The crash matrix: every test prepares a real store, kills it (file
// handles dropped, no final snapshot — exactly what fsync guarantees after
// SIGKILL), damages the directory the way a specific crash would, and
// demands that recovery yields an index byte-identical to a never-crashed
// reference holding every acknowledged insert that the damage model allows
// to survive.

// crashedStore runs the insert sequence against a store in dir, kills it,
// and returns the subsequence of inserts that were acknowledged (id >= 0),
// in WAL order.
func crashedStore(t *testing.T, dir string, inserts [][]float64, snapshotAfter int) [][]float64 {
	t.Helper()
	s := openStore(t, dir, Options{})
	var accepted [][]float64
	for i, opt := range inserts {
		id, err := s.Insert(opt)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if id >= 0 {
			accepted = append(accepted, opt)
		}
		if snapshotAfter > 0 && i == snapshotAfter-1 {
			if _, err := s.Snapshot(); err != nil {
				t.Fatalf("mid-run snapshot: %v", err)
			}
		}
	}
	s.kill()
	return accepted
}

// copyDir clones a data directory so one crashed state can be damaged many
// ways.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// logPath is the path of log i of dir.
func logPath(dir string, i int) string { return filepath.Join(dir, logNames[i]) }

// logRun reads the run of the log at path and fails the test if anything
// follows it.
func logRun(t *testing.T, path string) []record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, end := readRun(data)
	if end != int64(len(data)) {
		t.Fatalf("log %s holds %d bytes past its run before damage", path, int64(len(data))-end)
	}
	return recs
}

// recordBoundaries returns the byte offsets at which each record of the
// log's run ends (offset 0 of the slice = no records).
func recordBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	offs := []int64{0}
	for _, rec := range logRun(t, path) {
		offs = append(offs, offs[len(offs)-1]+recordSize(rec))
	}
	return offs
}

func reopen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Logger: testLogger(t)}, nil)
	if err != nil {
		t.Fatalf("recovery from %s failed: %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestCrashTornWALTail simulates a kill at every fsync boundary of the WAL:
// the file is cut at each record boundary and at points inside the next
// record. Recovery must keep exactly the records that were completely
// written — every acknowledged insert whose fsync returned — and discard
// the torn one, matching a reference that performed the surviving prefix.
func TestCrashTornWALTail(t *testing.T) {
	base := t.TempDir()
	inserts := testInserts()
	accepted := crashedStore(t, base, inserts, 0)
	if len(accepted) < 4 {
		t.Fatalf("test needs several accepted inserts, got %d", len(accepted))
	}
	offs := recordBoundaries(t, logPath(base, 0))
	if len(offs) != len(accepted)+1 {
		t.Fatalf("%d WAL records for %d accepted inserts", len(offs)-1, len(accepted))
	}
	for j := 0; j < len(accepted); j++ {
		cuts := []int64{offs[j], offs[j] + 3, offs[j+1] - 1}
		for _, cut := range cuts {
			if cut < offs[j] || cut >= offs[j+1] {
				continue
			}
			dir := copyDir(t, base)
			if err := os.Truncate(logPath(dir, 0), cut); err != nil {
				t.Fatal(err)
			}
			s := reopen(t, dir)
			if got := s.Status().AppliedLSN; got != uint64(j) {
				t.Fatalf("cut at %d (boundary %d): applied %d records, want %d", cut, j, got, j)
			}
			ref, _ := reference(t, accepted[:j])
			assertSameAnswers(t, s.Index(), ref)
		}
	}
	// The full, undamaged file recovers everything.
	s := reopen(t, copyDir(t, base))
	if got := s.Status().AppliedLSN; got != uint64(len(accepted)) {
		t.Fatalf("undamaged recovery applied %d, want %d", got, len(accepted))
	}
	ref, _ := reference(t, accepted)
	assertSameAnswers(t, s.Index(), ref)
}

// TestCrashBitFlippedWALRecord: a flipped byte inside a record makes it and
// everything after it the torn tail; recovery keeps the prefix.
func TestCrashBitFlippedWALRecord(t *testing.T) {
	base := t.TempDir()
	accepted := crashedStore(t, base, testInserts(), 0)
	offs := recordBoundaries(t, logPath(base, 0))
	j := len(accepted) / 2
	dir := copyDir(t, base)
	path := logPath(dir, 0)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[offs[j]+recHeaderSize+2] ^= 0x40 // inside record j's payload
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s := reopen(t, dir)
	if got := s.Status().AppliedLSN; got != uint64(j) {
		t.Fatalf("applied %d records after bit flip at record %d", got, j)
	}
	ref, _ := reference(t, accepted[:j])
	assertSameAnswers(t, s.Index(), ref)
}

// TestCrashTornRecordBeforePersistedOne: a crash persisted the third
// record of a group but tore the second, so the run ends at the first and
// the third, never acknowledged, lies past it. Recovery must keep it from
// ever joining the run: the next insert takes LSN 2, and a record of the
// same size, and a later recovery must stop there rather than replay the
// stale LSN 3 after it.
func TestCrashTornRecordBeforePersistedOne(t *testing.T) {
	dir := t.TempDir()
	opts := arc(4, 0)
	crashedStore(t, dir, opts[:3], 0)
	offs := recordBoundaries(t, logPath(dir, 0))
	blob, err := os.ReadFile(logPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	blob[offs[1]+recHeaderSize+2] ^= 0x40 // inside record 2's payload
	if err := os.WriteFile(logPath(dir, 0), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s := reopen(t, dir)
	if got := s.Status().AppliedLSN; got != 1 {
		t.Fatalf("recovered through LSN %d, want 1", got)
	}
	if _, lsn, err := s.InsertLSN(opts[3]); err != nil || lsn != 2 {
		t.Fatalf("insert after recovery: LSN %d, %v", lsn, err)
	}
	s.kill()
	s = reopen(t, dir)
	if got := s.Status().AppliedLSN; got != 2 {
		t.Fatalf("recovered through LSN %d, want 2: the stale record joined the run", got)
	}
	ref, _ := reference(t, [][]float64{opts[0], opts[3]})
	assertSameAnswers(t, s.Index(), ref)
}

// newestSlot is the path of the slot a load of dir takes.
func newestSlot(t *testing.T, dir string) string {
	t.Helper()
	p := NewSlots(dir)
	if ix, _, _ := p.Load(testLogger(t)); ix == nil {
		t.Fatalf("no slot of %s loads", dir)
	}
	return p.Newest()
}

// flipByte flips one bit at fraction at of the file at path, in place: a
// rewrite through a truncation would free the file's blocks, which costs
// tens of milliseconds on a filesystem mounted with discard.
func flipByte(t *testing.T, path string, at float64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	off := int64(at * float64(st.Size()))
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestCrashCorruptNewestSnapshot: the newest slot is damaged (bit rot, a
// write torn by a crash); recovery must fall back to the other slot and
// replay both logs across the rotation, losing nothing.
func TestCrashCorruptNewestSnapshot(t *testing.T) {
	base := t.TempDir()
	inserts := testInserts()
	accepted := crashedStore(t, base, inserts, len(inserts)/2)
	flipByte(t, newestSlot(t, base), 0.5)
	s := reopen(t, base)
	st := s.Status()
	if st.SnapshotFallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", st.SnapshotFallbacks)
	}
	if st.AppliedLSN != uint64(len(accepted)) {
		t.Fatalf("recovered %d records, want %d", st.AppliedLSN, len(accepted))
	}
	if st.RecordsReplayed != len(accepted) {
		t.Errorf("replayed %d, want %d", st.RecordsReplayed, len(accepted))
	}
	ref, _ := reference(t, accepted)
	assertSameAnswers(t, s.Index(), ref)
}

// TestCrashAllSnapshotsCorrupt: with neither slot loadable beside a WAL
// the store must refuse to serve rather than silently rebuild and drop
// acknowledged data.
func TestCrashAllSnapshotsCorrupt(t *testing.T) {
	base := t.TempDir()
	inserts := testInserts()
	crashedStore(t, base, inserts, len(inserts)/2)
	for _, name := range slotNames {
		flipByte(t, filepath.Join(base, name), 1.0/3)
	}
	if _, err := Open(Options{Dir: base}, builder(testData(30))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovery of a directory with no loadable slot: %v", err)
	}
}

// arc returns n options on an arc beyond the test data: none dominates
// another or is dominated, so each is accepted.
func arc(n, from int) [][]float64 {
	opts := make([][]float64, n)
	for i := range opts {
		a := float64(from+i+1) * math.Pi / 64
		opts[i] = []float64{1.5 * math.Cos(a), 1.5 * math.Sin(a)}
	}
	return opts
}

// TestCrashAfterRotation: the second snapshot recycles wal-a, which the
// first eight records filled. A kill right after that rotation, before
// wal-a's first append, or after k appends over its longer older run,
// recovers every acknowledged insert — from the newest slot, and across the
// rotation from the other one when the newest is bit-flipped — and the
// recovered store appends where the next recovery finds it.
func TestCrashAfterRotation(t *testing.T) {
	const older, between = 8, 2
	for _, k := range []int{0, 1, 3} {
		base := t.TempDir()
		s := openStore(t, base, Options{})
		opts := arc(older+between+k+1, 0)
		for i, opt := range opts[:len(opts)-1] {
			if _, err := s.Insert(opt); err != nil {
				t.Fatal(err)
			}
			if i == older-1 || i == older+between-1 {
				if _, err := s.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.kill()
		if fi, err := os.Stat(logPath(base, 0)); err != nil || fi.Size() != older*recordSize(record{attrs: opts[0]}) {
			t.Fatalf("k=%d: wal-a does not hold its older run of %d records: %v, %v", k, older, fi, err)
		}
		for _, flip := range []bool{false, true} {
			dir := copyDir(t, base)
			if flip {
				flipByte(t, newestSlot(t, dir), 0.5)
			}
			s := reopen(t, dir)
			st := s.Status()
			wantReplayed := k
			if flip {
				wantReplayed += between
			}
			if st.AppliedLSN != uint64(len(opts)-1) || st.RecordsReplayed != wantReplayed {
				t.Fatalf("k=%d flip=%v: applied %d, replayed %d; want %d and %d",
					k, flip, st.AppliedLSN, st.RecordsReplayed, len(opts)-1, wantReplayed)
			}
			ref, _ := reference(t, opts[:len(opts)-1])
			assertSameAnswers(t, s.Index(), ref)
			if _, err := s.Insert(opts[len(opts)-1]); err != nil {
				t.Fatal(err)
			}
			s.kill()
			ref, _ = reference(t, opts)
			assertSameAnswers(t, reopen(t, dir).Index(), ref)
		}
	}
}

// TestCrashOlderLogCutShort: with the newest slot corrupt, recovery needs
// the run of the log the older slot starts from; if that run is cut short,
// acknowledged records are unreachable — recovery must fail loudly, never
// serve a state with silent holes. That holds with records after the newest
// slot, where the next log's run leaves a gap, and without, where the
// newest slot's header names the LSN the WAL must reach.
func TestCrashOlderLogCutShort(t *testing.T) {
	inserts := testInserts()
	for _, snapshotAfter := range []int{len(inserts) / 2, len(inserts)} {
		base := t.TempDir()
		crashedStore(t, base, inserts, snapshotAfter)
		flipByte(t, newestSlot(t, base), 0.5)
		offs := recordBoundaries(t, logPath(base, 0))
		if err := os.Truncate(logPath(base, 0), offs[len(offs)-2]); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: base, Logger: testLogger(t)}, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("snapshot after %d: recovery over a cut-short log: %v", snapshotAfter, err)
		}
	}
}

// TestRecoveredStoreKeepsServing: after a crash recovery the store is fully
// live — inserts continue with the right ids and survive another restart.
func TestRecoveredStoreKeepsServing(t *testing.T) {
	base := t.TempDir()
	inserts := testInserts()
	accepted := crashedStore(t, base, inserts, 0)
	s := reopen(t, base)
	ref, _ := reference(t, accepted)
	wantID, err := ref.Insert([]float64{0.97, 0.96})
	if err != nil {
		t.Fatal(err)
	}
	gotID, err := s.Insert([]float64{0.97, 0.96})
	if err != nil || gotID != wantID {
		t.Fatalf("post-recovery insert id %d (%v), want %d", gotID, err, wantID)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, base)
	assertSameAnswers(t, s2.Index(), ref)
	var ix *tlx.Index = s2.Index()
	if rank, err := ix.MaxRank(wantID); err != nil || rank < 1 {
		t.Errorf("inserted option unreachable after second restart: rank=%d err=%v", rank, err)
	}
}

// TestRecoverReplaysLongTailInChunks: a long WAL tail — fresh options,
// duplicates that resolve to earlier ids, and records a mid-run snapshot
// already covers — recovers, in one batch, to the index the
// one-record-at-a-time reference reaches, with every tail record counted.
func TestRecoverReplaysLongTailInChunks(t *testing.T) {
	// inserts is the run's length and minTail the shortest tail the test
	// accepts as long: five and two of the 64-record chunks recovery used to
	// replay in.
	const inserts, minTail = 320, 128
	opts := ingestOptions(inserts)
	for i := 7; i < len(opts); i += 13 {
		opts[i] = append([]float64(nil), opts[i-5]...) // logged when opts[i-5] was, resolving to its id
	}
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	var logged int
	for i, opt := range opts {
		if id, err := s.Insert(opt); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		} else if id >= 0 {
			logged++
		}
		if i == 9 {
			if _, err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			// The tail outgrows the slot, which would have the store
			// snapshot it away; hold the trigger off.
			s.mu.Lock()
			s.slotBytes = math.MaxInt64
			s.mu.Unlock()
		}
	}
	s.kill()
	s = reopen(t, dir)
	st := s.Status()
	if st.AppliedLSN != uint64(logged) {
		t.Fatalf("applied LSN %d, want %d", st.AppliedLSN, logged)
	}
	tail := logged - int(st.SnapshotLSN)
	if tail <= minTail {
		t.Fatalf("the tail holds %d records, want more than %d", tail, minTail)
	}
	if st.RecordsReplayed != tail {
		t.Fatalf("replayed %d records, want %d", st.RecordsReplayed, tail)
	}
	want, _ := reference(t, opts)
	assertSameAnswers(t, s.Index(), want)
}

// TestRecoverRefusesNonFiniteRecord: an index refuses an option with a NaN
// or infinite coordinate, so a WAL record holding one — only a store
// written before the refusal could have logged it — cannot be re-applied
// under the id it was acknowledged with. Recovery fails loudly naming the
// record instead of serving a state that skipped it.
func TestRecoverRefusesNonFiniteRecord(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	id, lsn, err := s.InsertLSN([]float64{0.97, 0.96})
	if err != nil || id < 0 {
		t.Fatalf("insert: id %d, %v", id, err)
	}
	s.mu.Lock()
	wal := s.logs[s.active]
	if _, err = wal.writeRecord(record{lsn: lsn + 1, id: int64(id) + 1, attrs: []float64{math.NaN(), 0.95}}); err == nil {
		err = wal.sync()
	}
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	s.kill()
	_, err = Open(Options{Dir: dir, Logger: testLogger(t)}, nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("replay of record %d failed", lsn+1)) {
		t.Fatalf("recovery of a non-finite record: %v", err)
	}
}

// TestFailedSnapshot: a snapshot whose slot write fails — the spare slot's
// path is a directory, so the write meets EISDIR — errs and is counted;
// inserts go on being acknowledged; once the path is restored a snapshot
// succeeds; and a kill with the newest slot then bit-flipped recovers every
// acknowledged insert from the other slot.
func TestFailedSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	opts := arc(9, 0)
	insert := func(opts [][]float64) {
		t.Helper()
		for _, opt := range opts {
			if id, err := s.Insert(opt); err != nil || id < 0 {
				t.Fatalf("insert: id %d, %v", id, err)
			}
		}
	}
	insert(opts[:3])
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	insert(opts[3:5])
	spare := s.slots.path(s.slots.spare)
	if err := os.Rename(spare, spare+".away"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(spare, 0o755); err != nil {
		t.Fatal(err)
	}
	failures := snapshotFailuresTotal.Value()
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("a snapshot into a directory succeeded")
	}
	if snapshotFailuresTotal.Value() <= failures {
		t.Error("tlx_snapshot_failures_total did not rise")
	}
	insert(opts[5:7])
	if err := os.Remove(spare); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(spare+".away", spare); err != nil {
		t.Fatal(err)
	}
	if info, err := s.Snapshot(); err != nil || info.UpToDate || info.LSN != 7 {
		t.Fatalf("snapshot after the path was restored: %+v, %v", info, err)
	}
	insert(opts[7:])
	s.kill()
	flipByte(t, newestSlot(t, dir), 0.5)
	r := reopen(t, dir)
	if st := r.Status(); st.AppliedLSN != uint64(len(opts)) || st.SnapshotFallbacks != 1 {
		t.Fatalf("recovered to %+v, want LSN %d after one fallback", st, len(opts))
	}
	ref, _ := reference(t, opts)
	assertSameAnswers(t, r.Index(), ref)
}
