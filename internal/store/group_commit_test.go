package store

import (
	"os"
	"sync"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

// TestInsertBatchLSN: a mixed batch through the store must behave exactly
// like the same options through sequential InsertLSN — same ids, same LSN
// stamps, same recovered state — while paying the WAL one fsync.
func TestInsertBatchLSN(t *testing.T) {
	batch := testInserts()                // fresh options + a duplicate + a filtered one
	batch = append(batch, []float64{0.5}) // dimensionality mismatch

	seqDir, batDir := t.TempDir(), t.TempDir()
	seq := openStore(t, seqDir, Options{})
	bat := openStore(t, batDir, Options{})

	type ack struct {
		id  int
		lsn uint64
		ok  bool
	}
	want := make([]ack, len(batch))
	for i, opt := range batch {
		id, lsn, err := seq.InsertLSN(opt)
		want[i] = ack{id, lsn, err == nil}
	}

	fsyncsBefore := walFsyncsTotal.Value()
	results, stats, err := bat.InsertBatchLSN(batch)
	if err != nil {
		t.Fatalf("InsertBatchLSN: %v", err)
	}
	if d := walFsyncsTotal.Value() - fsyncsBefore; d != 1 {
		t.Errorf("batch cost %d fsyncs, want 1", d)
	}
	if len(results) != len(batch) {
		t.Fatalf("%d results for %d options", len(results), len(batch))
	}
	for i, res := range results {
		if (res.Err == nil) != want[i].ok {
			t.Fatalf("item %d: err %v, sequential ok=%v", i, res.Err, want[i].ok)
		}
		if res.Err != nil {
			continue
		}
		if res.ID != want[i].id || res.LSN != want[i].lsn {
			t.Fatalf("item %d: batch (id %d, lsn %d), sequential (id %d, lsn %d)",
				i, res.ID, res.LSN, want[i].id, want[i].lsn)
		}
	}
	if stats.Requests != 1 || stats.Records != len(batch) {
		t.Errorf("group stats %+v", stats)
	}
	if bat.AppliedLSN() != seq.AppliedLSN() {
		t.Fatalf("applied %d after batch, sequential %d", bat.AppliedLSN(), seq.AppliedLSN())
	}
	if stats.Logged != int(bat.AppliedLSN()) {
		t.Errorf("stats.Logged = %d, applied = %d", stats.Logged, bat.AppliedLSN())
	}
	assertSameAnswers(t, bat.Index(), seq.Index())

	// The batch-written store recovers to the same state.
	bat.kill()
	rec := reopen(t, batDir)
	if rec.Status().AppliedLSN != seq.AppliedLSN() {
		t.Fatalf("recovered applied %d, want %d", rec.Status().AppliedLSN, seq.AppliedLSN())
	}
	assertSameAnswers(t, rec.Index(), seq.Index())
	seq.Close()
}

// TestInsertBatchLSNEmpty: a zero-length batch is a durable no-op.
func TestInsertBatchLSNEmpty(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	results, stats, err := s.InsertBatchLSN(nil)
	if err != nil || results != nil || stats.Logged != 0 {
		t.Fatalf("empty batch: %v %+v %v", results, stats, err)
	}
	if s.AppliedLSN() != 0 {
		t.Fatal("empty batch advanced the LSN")
	}
}

// TestGroupCommitAckOrdering runs many concurrent writers through the
// group-commit protocol (under -race this is also the protocol's data-race
// proof) and then verifies the acknowledgement contract record by record:
// every acknowledged (id, LSN) pair must appear in the WAL exactly as
// acknowledged — same id, same attributes, LSNs contiguous — and recovery
// must accept the whole log with the ids the writers were told.
func TestGroupCommitAckOrdering(t *testing.T) {
	const writers = 8
	dir := t.TempDir()
	s := openStore(t, dir, Options{})

	// Distinct well-separated options per writer so none is filtered and
	// ids are informative.
	perWriter := 6
	opts := datagen.Generate(datagen.IND, writers*perWriter, 2, 77)

	type ack struct {
		id    int
		lsn   uint64
		attrs []float64
	}
	acks := make(chan ack, writers*perWriter)
	fsyncsBefore := walFsyncsTotal.Value()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				opt := opts[w*perWriter+i]
				id, lsn, err := s.InsertLSN(opt)
				if err != nil {
					t.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
				if id >= 0 {
					acks <- ack{id, lsn, opt}
				}
			}
		}(w)
	}
	wg.Wait()
	close(acks)
	fsyncs := walFsyncsTotal.Value() - fsyncsBefore
	s.kill()
	if lsn := s.Status().SnapshotLSN; lsn != 0 {
		t.Fatalf("a snapshot ran at LSN %d and may have split the records over both logs", lsn)
	}

	// No snapshot ran, so wal-a holds every record.
	recs := logRun(t, logPath(dir, 0))
	byLSN := make(map[uint64]record, len(recs))
	for i, rec := range recs {
		if rec.lsn != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.lsn)
		}
		byLSN[rec.lsn] = rec
	}
	nacks := 0
	for a := range acks {
		nacks++
		rec, ok := byLSN[a.lsn]
		if !ok {
			t.Fatalf("acknowledged LSN %d missing from the WAL", a.lsn)
		}
		if rec.id != int64(a.id) {
			t.Fatalf("LSN %d acknowledged id %d, WAL has %d", a.lsn, a.id, rec.id)
		}
		if len(rec.attrs) != len(a.attrs) {
			t.Fatalf("LSN %d attrs differ", a.lsn)
		}
		for i := range rec.attrs {
			if rec.attrs[i] != a.attrs[i] {
				t.Fatalf("LSN %d attrs differ", a.lsn)
			}
		}
	}
	if nacks != len(recs) {
		t.Fatalf("%d acknowledgements for %d WAL records", nacks, len(recs))
	}
	if fsyncs > uint64(len(recs)) {
		t.Errorf("%d fsyncs for %d records: more syncs than appends", fsyncs, len(recs))
	}
	t.Logf("group commit: %d records, %d fsyncs (%.2f fsyncs/record)",
		len(recs), fsyncs, float64(fsyncs)/float64(len(recs)))

	// Recovery replays the interleaved history and re-derives every
	// acknowledged id (the replay cross-check would fail otherwise).
	rec := reopen(t, dir)
	if rec.Status().AppliedLSN != uint64(len(recs)) {
		t.Fatalf("recovered %d of %d records", rec.Status().AppliedLSN, len(recs))
	}
}

// TestCrashTornGroupBoundary is the crash matrix extended to group commit:
// batches written through InsertBatchLSN land as fsync groups, and the WAL
// is cut at every group boundary (a crash between fsyncs) and inside every
// group (a crash mid-flush). Recovery at a boundary must keep exactly the
// fully-committed groups; a mid-group cut keeps the group's complete
// record prefix, all of it unacknowledged by construction.
func TestCrashTornGroupBoundary(t *testing.T) {
	base := t.TempDir()
	s := openStore(t, base, Options{})
	all := datagen.Generate(datagen.COR, 12, 2, 55)
	batches := [][][]float64{all[:3], all[3:4], all[4:9], all[9:]}
	boundaries := []uint64{0} // applied LSN after each committed group
	for bi, b := range batches {
		results, _, err := s.InsertBatchLSN(b)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("batch %d item %d: %v", bi, i, res.Err)
			}
		}
		boundaries = append(boundaries, s.AppliedLSN())
	}
	s.kill()

	offs := recordBoundaries(t, logPath(base, 0)) // offs[k] = byte size holding k records
	recs := logRun(t, logPath(base, 0))
	replayPrefix := func(k int) *tlx.Index {
		ix, err := tlx.Build(testData(30), testTau)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs[:k] {
			if _, err := ix.Insert(rec.attrs); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	for gi, lsn := range boundaries {
		k := int(lsn)
		dir := copyDir(t, base)
		if err := os.Truncate(logPath(dir, 0), offs[k]); err != nil {
			t.Fatal(err)
		}
		rec := reopen(t, dir)
		if got := rec.Status().AppliedLSN; got != lsn {
			t.Fatalf("cut at group boundary %d: applied %d, want %d", gi, got, lsn)
		}
		assertSameAnswers(t, rec.Index(), replayPrefix(k))

		// A crash mid-group: the device persisted part of the group's
		// records plus a torn one. Recovery keeps the complete prefix.
		if gi+1 < len(boundaries) && boundaries[gi+1] > lsn {
			cut := offs[k+1] - 1 // inside the group's first record
			dir := copyDir(t, base)
			if err := os.Truncate(logPath(dir, 0), cut); err != nil {
				t.Fatal(err)
			}
			rec := reopen(t, dir)
			if got := rec.Status().AppliedLSN; got != lsn {
				t.Fatalf("cut inside group %d: applied %d, want %d", gi+1, got, lsn)
			}
			assertSameAnswers(t, rec.Index(), replayPrefix(k))
			if int(boundaries[gi+1])-k > 1 {
				// Deeper into the group: complete records short of the
				// group fsync still replay (they were never acknowledged,
				// so keeping them is allowed — and they are valid history).
				cut := offs[k+1]
				dir := copyDir(t, base)
				if err := os.Truncate(logPath(dir, 0), cut); err != nil {
					t.Fatal(err)
				}
				rec := reopen(t, dir)
				if got := rec.Status().AppliedLSN; got != lsn+1 {
					t.Fatalf("cut after first record of group %d: applied %d, want %d",
						gi+1, got, lsn+1)
				}
				assertSameAnswers(t, rec.Index(), replayPrefix(k+1))
			}
		}
	}
}
