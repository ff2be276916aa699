package store

import (
	"bytes"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

const testTau = 3

func testData(n int) [][]float64 { return datagen.Generate(datagen.IND, n, 2, 9) }

// testInserts yields a deterministic insert mix: fresh options, an exact
// duplicate of an earlier insert (resolves to its id), and a hopeless
// option that the τ-skyband filter drops (id -1, never logged).
func testInserts() [][]float64 {
	opts := datagen.Generate(datagen.COR, 6, 2, 33)
	opts = append(opts, append([]float64(nil), opts[0]...)) // duplicate
	opts = append(opts, []float64{0.001, 0.001})            // filtered
	opts = append(opts, datagen.Generate(datagen.IND, 4, 2, 34)...)
	return opts
}

func builder(data [][]float64) func() (*tlx.Index, error) {
	return func() (*tlx.Index, error) { return tlx.Build(data, testTau) }
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	opts.Logger = testLogger(t)
	s, err := Open(opts, builder(testData(30)))
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// reference builds the never-crashed comparison index: a fresh build plus
// the same insert sequence through the plain in-memory path.
func reference(t *testing.T, inserts [][]float64) (*tlx.Index, []int) {
	t.Helper()
	ix, err := tlx.Build(testData(30), testTau)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(inserts))
	for i, opt := range inserts {
		id, err := ix.Insert(opt)
		if err != nil {
			t.Fatalf("reference insert %d: %v", i, err)
		}
		ids[i] = id
	}
	return ix, ids
}

func serialize(t *testing.T, ix *tlx.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSameAnswers demands the recovered index be indistinguishable from
// the reference: byte-identical serialization and identical top-k, UTK, and
// ORU answers over a weight grid.
func assertSameAnswers(t *testing.T, got, want *tlx.Index) {
	t.Helper()
	if !bytes.Equal(serialize(t, got), serialize(t, want)) {
		t.Fatal("recovered index serializes differently from the reference")
	}
	for _, w := range [][]float64{{0.1, 0.9}, {0.3, 0.7}, {0.5, 0.5}, {0.8, 0.2}} {
		a, aerr := got.TopK(w, testTau)
		b, berr := want.TopK(w, testTau)
		if (aerr == nil) != (berr == nil) || !reflect.DeepEqual(a, b) {
			t.Fatalf("TopK(%v) differs: %v/%v vs %v/%v", w, a, aerr, b, berr)
		}
		ra, aerr := got.ORU(2, w, 3)
		rb, berr := want.ORU(2, w, 3)
		if (aerr == nil) != (berr == nil) || (aerr == nil && !reflect.DeepEqual(ra.Options, rb.Options)) {
			t.Fatalf("ORU(%v) differs", w)
		}
	}
	ua, aerr := got.UTK(testTau, []float64{0.3}, []float64{0.5})
	ub, berr := want.UTK(testTau, []float64{0.3}, []float64{0.5})
	if (aerr == nil) != (berr == nil) || (aerr == nil && !reflect.DeepEqual(ua.Options, ub.Options)) {
		t.Fatal("UTK differs")
	}
}

func TestInitializeAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if st := s.Status(); st.AppliedLSN != 0 || st.RecoveredFrom != "initial build" {
		t.Fatalf("fresh status: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen must come from the slot, replay nothing, and ignore the
	// builder entirely.
	s2, err := Open(Options{Dir: dir, Logger: testLogger(t)}, func() (*tlx.Index, error) {
		t.Fatal("builder called on non-empty dir")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Status(); st.RecordsReplayed != 0 || !strings.Contains(st.RecoveredFrom, "slot-") {
		t.Fatalf("reopen status: %+v", st)
	}
	ref, _ := reference(t, nil)
	assertSameAnswers(t, s2.Index(), ref)
}

func TestInsertDurabilityAcrossCleanRestart(t *testing.T) {
	dir := t.TempDir()
	inserts := testInserts()
	ref, refIDs := reference(t, inserts)

	s := openStore(t, dir, Options{})
	for i, opt := range inserts {
		id, err := s.Insert(opt)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if id != refIDs[i] {
			t.Fatalf("insert %d: id %d, reference %d", i, id, refIDs[i])
		}
	}
	if st := s.Status(); st.WALRecords == 0 {
		t.Fatal("accepted inserts did not reach the WAL")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	st := s2.Status()
	if st.RecordsReplayed != 0 {
		t.Errorf("clean close still replayed %d records", st.RecordsReplayed)
	}
	assertSameAnswers(t, s2.Index(), ref)
	// Ids keep advancing from where the pre-restart process stopped.
	next, err := s2.Insert([]float64{0.99, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	wantNext, err := ref.Insert([]float64{0.99, 0.99})
	if err != nil || next != wantNext {
		t.Fatalf("post-restart id %d, want %d", next, wantNext)
	}
}

func TestFilteredInsertNotLogged(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	before := s.Status()
	id, err := s.Insert([]float64{0.001, 0.001})
	if err != nil || id != -1 {
		t.Fatalf("filtered insert: id=%d err=%v", id, err)
	}
	after := s.Status()
	if after.AppliedLSN != before.AppliedLSN || after.WALBytes != before.WALBytes {
		t.Errorf("filtered insert changed durable state: %+v -> %+v", before, after)
	}
}

func TestManualSnapshotAndPrune(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	inserts := testInserts()
	for _, opt := range inserts[:3] {
		if _, err := s.Insert(opt); err != nil {
			t.Fatal(err)
		}
	}
	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.UpToDate || info.LSN == 0 || info.Bytes == 0 {
		t.Fatalf("snapshot info: %+v", info)
	}
	// No new records: the next call reports up to date.
	again, err := s.Snapshot()
	if err != nil || !again.UpToDate {
		t.Fatalf("idle snapshot: %+v err=%v", again, err)
	}
	// Both slots now exist. Each further snapshot overwrites one of them in
	// place — the same two files, never renamed — and pruning holds the WAL
	// at the segments the older slot needs: its own and the newest.
	slots := slotFiles(t, dir)
	for _, opt := range inserts[3:] {
		if _, err := s.Insert(opt); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	for i, fi := range slotFiles(t, dir) {
		if !os.SameFile(fi, slots[i]) {
			t.Errorf("%s is a new file: a snapshot replaced it instead of writing it in place", fi.Name())
		}
	}
	var names []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		names = append(names, e.Name())
	}
	segs, err := scanSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 || names[0] != "slot-a.idx" || names[1] != "slot-b.idx" || len(segs) != 2 {
		t.Errorf("data dir holds %v, want two WAL segments and the two slots", names)
	}
}

// slotFiles stats the two slot files of dir.
func slotFiles(t *testing.T, dir string) []os.FileInfo {
	t.Helper()
	var out []os.FileInfo
	for _, name := range slotNames {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fi)
	}
	return out
}

// TestAutoSnapshotByWALBytes: the store snapshots by itself once the WAL
// holds as many bytes since the newest slot as that slot does, and not
// before.
func TestAutoSnapshotByWALBytes(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	fi, err := os.Stat(filepath.Join(dir, slotNames[0]))
	if err != nil {
		t.Fatal(err)
	}
	slot := fi.Size()
	// A duplicate of an indexed option is logged under its id and changes
	// nothing, so every insert grows the WAL by one record.
	dup := testData(30)[s.Index().LevelOptions(1)[0]]
	for st := s.Status(); st.WALBytes < slot; st = s.Status() {
		if st.SnapshotLSN != 0 {
			t.Fatalf("snapshot at LSN %d with %d of %d WAL bytes", st.SnapshotLSN, st.WALBytes, slot)
		}
		if id, err := s.Insert(dup); err != nil || id < 0 {
			t.Fatalf("duplicate insert: id %d, %v", id, err)
		}
	}
	applied := s.Status().AppliedLSN
	for deadline := time.Now().Add(10 * time.Second); s.Status().SnapshotLSN != applied; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot at LSN %d: status %+v", applied, s.Status())
		}
	}
}

func TestConcurrentInsertsAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	inserts := datagen.Generate(datagen.IND, 12, 2, 77)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, opt := range inserts {
			if _, err := s.Insert(opt); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := s.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	applied := s.Status().AppliedLSN
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if got := s2.Status().AppliedLSN; got != applied {
		t.Errorf("recovered LSN %d, want %d", got, applied)
	}
}

// TestSnapshotAfterDeepQuery: a query past τ is refused with ErrBeyondTau
// and changes nothing, so the insert and the snapshot after it go through,
// and the recovered index answers like the one it was taken from.
func TestSnapshotAfterDeepQuery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if _, err := s.Index().TopK([]float64{0.5, 0.5}, testTau+1); !errors.Is(err, tlx.ErrBeyondTau) {
		t.Fatalf("query past τ: err %v, want ErrBeyondTau", err)
	}
	id, err := s.Insert([]float64{0.97, 0.97})
	if err != nil || id < 0 {
		t.Fatalf("insert after the refused query: id %d, err %v", id, err)
	}
	if info, err := s.Snapshot(); err != nil || info.UpToDate {
		t.Fatalf("snapshot after the refused query: %+v, %v", info, err)
	}
	want, _ := s.Index().TopK([]float64{0.5, 0.5}, testTau)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if got, _ := s2.Index().TopK([]float64{0.5, 0.5}, testTau); !reflect.DeepEqual(got, want) || got[0] != id {
		t.Fatalf("recovered top-%d = %v, want %v led by %d", testTau, got, want, id)
	}
}

func TestOpenEmptyDirWithoutBuilder(t *testing.T) {
	if _, err := Open(Options{Dir: t.TempDir()}, nil); err == nil {
		t.Fatal("expected error for empty dir without builder")
	}
}

func TestWALWithoutSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	seg, err := createSegment(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg.Close()
	if _, err := Open(Options{Dir: dir}, builder(testData(30))); err == nil {
		t.Fatal("expected error for WAL segments without any snapshot")
	}
}

// TestTornFirstSlotRebuilds: a crash while the very first slot is written
// leaves it torn and no WAL segment beside it. Nothing was acknowledged,
// so Open builds the index again.
func TestTornFirstSlotRebuilds(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	s.kill()
	for _, name := range []string{slotNames[0], filepath.Base(segmentPath(dir, 0))} {
		path := filepath.Join(dir, name)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if name == slotNames[0] {
			err = os.WriteFile(path, blob[:len(blob)/2], 0o644)
		} else {
			err = os.Remove(path)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if st := s2.Status(); st.RecoveredFrom != "initial build" || st.AppliedLSN != 0 {
		t.Fatalf("status after a torn first slot: %+v", st)
	}
	ref, _ := reference(t, nil)
	assertSameAnswers(t, s2.Index(), ref)
}

// TestOpenRefusesSnapshotLayout: a directory in the layout before the two
// slots (snapshot-<LSN>.idx files) is refused with an error that names the
// change, not read and not rebuilt over.
func TestOpenRefusesSnapshotLayout(t *testing.T) {
	dir := t.TempDir()
	ix, err := tlx.Build(testData(30), testTau)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := ix.AppendBinary(nil)
	old := filepath.Join(dir, "snapshot-00000000000000000000.idx")
	if err := os.WriteFile(old, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{Dir: dir, Logger: testLogger(t)}, builder(testData(30)))
	if err == nil || !strings.Contains(err.Error(), "slot-a.idx") || !strings.Contains(err.Error(), "snapshot-<LSN>.idx") {
		t.Fatalf("Open over the snapshot layout: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, slotNames[0])); !os.IsNotExist(err) {
		t.Error("Open wrote a slot beside the old layout")
	}
}

// testLogger returns a logger that writes every record, debug included, to
// t.Log.
func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

type testLogWriter struct{ t testing.TB }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}
