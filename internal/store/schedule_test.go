package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/internal/obs"
)

// TestCrashSchedules runs seeded schedules against a store at d=2. Each
// mixes insert batches (fresh, duplicate and filtered options), snapshots,
// failed snapshots, kills and damage to the newest slot. Every reopen must
// hold the bytes of a never-crashed reference that applied every
// acknowledged batch; ErrCorrupt is allowed only when both slots are
// damaged. A slot counts as damaged from the moment the schedule flips or
// tears it, or a slot write into it fails — such a failure tears the spare
// in general, and the rotation before it recycled the records the spare's
// index needed — until a snapshot writes it again.
func TestCrashSchedules(t *testing.T) {
	const schedules, steps = 200, 12
	// Every schedule runs in one directory, its four files zeroed between
	// schedules, and a failed slot write renames one spare directory into
	// place: freeing a block costs as much as an unlink on a mount with
	// discard, and a thousand of them made the run's time the disk's.
	dir, spareDir := t.TempDir(), t.TempDir()
	for seed := int64(1); seed <= schedules; seed++ {
		for _, name := range []string{slotNames[0], slotNames[1], logNames[0], logNames[1]} {
			if err := zeroFile(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		}
		runSchedule(t, seed, steps, dir, spareDir)
	}
}

// zeroFile overwrites the file at path with zeros in place: no truncation,
// so no block is freed.
func zeroFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err == nil {
		_, err = f.WriteAt(make([]byte, st.Size()), 0)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func runSchedule(t *testing.T, seed int64, steps int, dir, spareDir string) {
	rng := rand.New(rand.NewSource(seed))
	data := testData(30)
	open := func() (*Store, error) { return Open(Options{Dir: dir}, builder(data)) }
	s, err := open()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if s != nil {
			s.kill()
		}
	}()
	ref, err := tlx.Build(data, testTau)
	if err != nil {
		t.Fatal(err)
	}
	inserted := data
	// damaged is the model of the slots' state: slot-b holds zeros until
	// the first snapshot. An auto snapshot can only mend a slot the model
	// counts as damaged, so the model may allow an ErrCorrupt that is not
	// due, but never forbids one that is.
	damaged := map[string]bool{filepath.Join(dir, slotNames[1]): true}
	for step := 0; step < steps; step++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
		}
		switch op := rng.Intn(10); {
		case op < 5:
			batch := make([][]float64, 1+rng.Intn(4))
			for i := range batch {
				switch rng.Intn(4) {
				case 0:
					batch[i] = append([]float64(nil), inserted[rng.Intn(len(inserted))]...)
				case 1:
					batch[i] = []float64{0.001, 0.001}
				default:
					batch[i] = []float64{0.3 + 0.8*rng.Float64(), 0.3 + 0.8*rng.Float64()}
				}
			}
			got, _, err := s.InsertBatchLSN(batch)
			if err != nil {
				fail("insert: %v", err)
			}
			want, _ := ref.InsertBatch(batch)
			for i := range got {
				if got[i].ID != want[i].ID {
					fail("option %d got id %d, the reference %d", i, got[i].ID, want[i].ID)
				}
			}
			inserted = append(inserted, batch...)
		case op < 7:
			info, err := s.Snapshot()
			if err != nil {
				fail("snapshot: %v", err)
			}
			if !info.UpToDate {
				damaged[info.File] = false
			}
		case op < 8:
			// The spare slot's path becomes a directory, so the slot write
			// fails, unless there is nothing to snapshot.
			s.snapMu.Lock()
			st := s.Status()
			spare := s.slots.path(s.slots.spare)
			busy := st.AppliedLSN != st.SnapshotLSN
			if busy {
				if err := os.Rename(spare, spare+".away"); err != nil {
					fail("%v", err)
				}
				if err := os.Rename(spareDir, spare); err != nil {
					fail("%v", err)
				}
			}
			s.snapMu.Unlock()
			if !busy {
				continue
			}
			if _, err := s.Snapshot(); err == nil {
				fail("a snapshot into a directory succeeded")
			}
			damaged[spare] = true
			if err := os.Rename(spare, spareDir); err != nil {
				fail("%v", err)
			}
			if err := os.Rename(spare+".away", spare); err != nil {
				fail("%v", err)
			}
		default:
			applied := s.AppliedLSN()
			s.kill()
			if rng.Intn(2) == 0 {
				p := NewSlots(dir)
				if ix, _, _ := p.Load(obs.NopLogger()); ix != nil {
					damaged[p.Newest()] = true
					if rng.Intn(2) == 0 {
						flipByte(t, p.Newest(), 0.5)
					} else if fi, err := os.Stat(p.Newest()); err != nil || os.Truncate(p.Newest(), fi.Size()/2) != nil {
						fail("tearing %s: %v", p.Newest(), err)
					}
				}
			}
			if s, err = open(); err != nil {
				if !errors.Is(err, ErrCorrupt) || !damaged[filepath.Join(dir, slotNames[0])] || !damaged[filepath.Join(dir, slotNames[1])] {
					fail("reopen with damaged slots %v: %v", damaged, err)
				}
				return
			}
			if s.AppliedLSN() != applied {
				fail("reopened at LSN %d, want %d", s.AppliedLSN(), applied)
			}
			got, _ := s.Index().AppendBinary(nil)
			want, _ := ref.AppendBinary(nil)
			if !bytes.Equal(got, want) {
				fail("the reopened index differs from the reference")
			}
		}
	}
}
