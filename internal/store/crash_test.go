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

// recordBoundaries returns the byte offsets at which each record of the
// segment ends (offset 0 of the slice = header only, no records).
func recordBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	sd, err := readSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if sd.torn {
		t.Fatalf("segment %s torn before damage", path)
	}
	offs := []int64{segHeaderSize}
	at := int64(segHeaderSize)
	for _, rec := range sd.records {
		at += int64(len(encodeRecord(rec)))
		offs = append(offs, at)
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
	walPath := segmentPath(base, 0)
	offs := recordBoundaries(t, walPath)
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
			if err := os.Truncate(segmentPath(dir, 0), cut); err != nil {
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
	offs := recordBoundaries(t, segmentPath(base, 0))
	j := len(accepted) / 2
	dir := copyDir(t, base)
	path := segmentPath(dir, 0)
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

// newestSlot is the path of the slot a load of dir takes.
func newestSlot(t *testing.T, dir string) string {
	t.Helper()
	p := NewSlots(dir)
	if ix, _, _ := p.Load(testLogger(t)); ix == nil {
		t.Fatalf("no slot of %s loads", dir)
	}
	return p.Newest()
}

// flipByte flips one bit at fraction at of the file at path.
func flipByte(t *testing.T, path string, at float64) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[int(at*float64(len(blob)))] ^= 0x10
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashCorruptNewestSnapshot: the newest slot is damaged (bit rot, a
// write torn by a crash); recovery must fall back to the other slot and
// replay the full WAL chain across the rotation, losing nothing.
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

// TestCrashDuringSegmentRotation: a kill between a snapshot capture and the
// new segment's first fsync leaves a header-less segment file; no record
// was acknowledged into it, so recovery drops and recreates it.
func TestCrashDuringSegmentRotation(t *testing.T) {
	base := t.TempDir()
	inserts := testInserts()
	accepted := crashedStore(t, base, inserts, len(inserts)/2)
	segs, err := scanSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	newest := segs[len(segs)-1]
	// Chop the newest segment below its header — but that segment holds
	// acknowledged records, so first re-crash the scenario properly: only a
	// segment with no durable records may be torn at creation. Rebuild the
	// state: take a snapshot of everything, then tear the fresh segment.
	s := reopen(t, base)
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.kill()
	segs, err = scanSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	newest = segs[len(segs)-1]
	if err := os.Truncate(newest.path, 5); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, base)
	if got := s2.Status().AppliedLSN; got != uint64(len(accepted)) {
		t.Fatalf("recovered %d records, want %d", got, len(accepted))
	}
	ref, _ := reference(t, accepted)
	assertSameAnswers(t, s2.Index(), ref)
}

// TestCrashMissingSealedSegment: if a sealed segment disappears (or a
// corrupt record hides its tail) while a later snapshot is also unusable,
// acknowledged records are unreachable — recovery must fail loudly, never
// serve a state with silent holes.
func TestCrashMissingSealedSegment(t *testing.T) {
	base := t.TempDir()
	inserts := testInserts()
	crashedStore(t, base, inserts, len(inserts)/2)
	segs, err := scanSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest slot so recovery needs the full WAL chain, then
	// delete the sealed segment holding the first half of it.
	flipByte(t, newestSlot(t, base), 0.5)
	if err := os.Remove(segs[0].path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: base, Logger: testLogger(t)}, nil); err == nil {
		t.Fatal("recovery bridged a WAL gap")
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
	_, err = s.seg.append(record{lsn: lsn + 1, id: int64(id) + 1, attrs: []float64{math.NaN(), 0.95}})
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
