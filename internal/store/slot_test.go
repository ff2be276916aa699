package store_test

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	tlx "tlevelindex"
	"tlevelindex/datagen"
	"tlevelindex/internal/obs"
	"tlevelindex/internal/replicate"
	"tlevelindex/internal/serve"
	"tlevelindex/internal/store"
)

// The slot tests damage a directory's two slots the ways a crash or the
// disk can, through one helper, and hold each role's load to the outcome:
// the shared loader, a primary's store.Open and a follower's restart.

// slotHistory is a directory whose newest slot, at LSN newest, was written
// in place over the bytes in earlier, and whose other slot holds LSN older.
type slotHistory struct {
	dir           string
	earlier       []byte
	older, newest uint64
}

// eachSlotDamage copies h.dir once, and for each damage case rewrites the
// copy's files in place to h.dir's bytes with the damage applied, then
// calls check on the copy with the LSN a load must land on, or with ok
// false when neither slot may verify. One copy, overwritten, frees no block
// (a fresh copy per case made the run's time the disk's, in unlinks). A
// crash that tore the newest slot's write left its first k bytes and the
// earlier bytes past them; cuts, given the number of bytes the write wrote
// (the slot's header and index: the file runs longer when the earlier index
// was larger, and a cut past the last byte written tears nothing), lists
// the ks to try, every byte boundary of the write when nil.
func eachSlotDamage(t *testing.T, h slotHistory, cuts func(size int) []int, check func(t *testing.T, dir, damage string, want uint64, ok bool)) {
	t.Helper()
	p := store.NewSlots(h.dir)
	if _, lsn, _ := p.Load(obs.NopLogger()); lsn != h.newest {
		t.Fatalf("newest slot of %s at LSN %d, want %d", h.dir, lsn, h.newest)
	}
	newest := filepath.Base(p.Newest())
	other := "slot-a.idx"
	if newest == other {
		other = "slot-b.idx"
	}
	written := readFile(t, filepath.Join(h.dir, newest))[:p.NewestBytes()]
	var ks []int
	if cuts == nil {
		for k := 0; k < len(written); k++ {
			ks = append(ks, k)
		}
	} else {
		ks = cuts(len(written))
	}
	entries, err := os.ReadDir(h.dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		files[e.Name()] = readFile(t, filepath.Join(h.dir, e.Name()))
	}
	dir := t.TempDir()
	damage := func(name string, want uint64, ok bool, damaged map[string][]byte) {
		// check may have written any file (a store's final snapshot, a
		// follower's install), so each is rewritten, damaged or not.
		for file, blob := range files {
			if d, ok := damaged[file]; ok {
				blob = d
			}
			overwrite(t, filepath.Join(dir, file), blob)
		}
		check(t, dir, name, want, ok)
	}
	for _, k := range ks {
		torn := append([]byte(nil), written[:k]...)
		if k < len(h.earlier) {
			torn = append(torn, h.earlier[k:]...)
		}
		damage("torn at byte "+strconv.Itoa(k), h.older, true, map[string][]byte{newest: torn})
	}
	flipped := func(name string) []byte {
		blob := append([]byte(nil), files[name]...)
		blob[len(blob)/2] ^= 0x08
		return blob
	}
	damage("newest bit-flipped", h.older, true, map[string][]byte{newest: flipped(newest)})
	damage("other bit-flipped", h.newest, true, map[string][]byte{other: flipped(other)})
	damage("both bit-flipped", 0, false, map[string][]byte{newest: flipped(newest), other: flipped(other)})
}

// overwrite makes the file at path hold blob: written in place, then cut
// to len(blob). The files these tests write stay within one block, so no
// cut frees one.
func overwrite(t *testing.T, path string, blob []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt(blob, 0)
	if err == nil {
		err = f.Truncate(int64(len(blob)))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// someCuts are the torn writes the role tests try: nothing, inside and at
// the end of the header, and inside the index bytes.
func someCuts(size int) []int { return []int{0, 1, 27, 28, 29, size / 2, size - 1} }

// storeHistory runs a store through three slot writes — the initial one at
// LSN 0, snapshots at LSN older and newest, the last over the first — plus
// records past newest that only the WAL holds, and returns it still open.
func storeHistory(t *testing.T) (*store.Store, slotHistory) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir}, func() (*tlx.Index, error) {
		return tlx.Build(datagen.Generate(datagen.IND, 30, 2, 9), 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h := slotHistory{dir: dir}
	for i := 0; i < 9; i++ {
		// Options on an arc beyond the data: none dominates another,
		// so each is accepted.
		a := float64(i+1) * math.Pi / 20
		if _, err := st.Insert([]float64{1.5 * math.Cos(a), 1.5 * math.Sin(a)}); err != nil {
			t.Fatal(err)
		}
		if i != 2 && i != 5 {
			continue
		}
		h.earlier = readFile(t, filepath.Join(dir, "slot-a.idx"))
		info, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		h.older, h.newest = h.newest, info.LSN
	}
	if h.older == 0 || h.newest <= h.older || st.AppliedLSN() <= h.newest {
		t.Fatalf("history at LSNs %d, %d and %d: the inserts were filtered", h.older, h.newest, st.AppliedLSN())
	}
	return st, h
}

// TestSlotTornAtEveryByte: whatever prefix of a slot's write reached the
// disk, the loader both roles share falls back to the other slot.
func TestSlotTornAtEveryByte(t *testing.T) {
	_, h := storeHistory(t)
	eachSlotDamage(t, h, nil, func(t *testing.T, dir, damage string, want uint64, ok bool) {
		ix, lsn, _ := store.NewSlots(dir).Load(obs.NopLogger())
		if (ix != nil) != ok || lsn != want {
			t.Fatalf("%s: load at LSN %d (index %v), want LSN %d (%v)", damage, lsn, ix != nil, want, ok)
		}
	})
}

// TestSlotDamageStore: a primary recovers every acknowledged insert from
// whichever slot verifies plus the WAL past it, and refuses to serve when
// neither slot does.
func TestSlotDamageStore(t *testing.T) {
	st, h := storeHistory(t)
	applied := st.AppliedLSN()
	want, _ := st.Index().AppendBinary(nil)
	eachSlotDamage(t, h, someCuts, func(t *testing.T, dir, damage string, from uint64, ok bool) {
		s, err := store.Open(store.Options{Dir: dir}, nil)
		if !ok {
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("%s: Open over two corrupt slots and a WAL: %v", damage, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", damage, err)
		}
		defer s.Close()
		if stat := s.Status(); stat.SnapshotLSN != from || stat.AppliedLSN != applied {
			t.Fatalf("%s: recovered from LSN %d to %d, want from %d to %d", damage, stat.SnapshotLSN, stat.AppliedLSN, from, applied)
		}
		if got, _ := s.Index().AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("%s: recovered index differs from the one that crashed", damage)
		}
	})
}

// TestSlotDamageFollower: a restarted follower resumes from whichever slot
// verifies — it asks the primary for an index newer than that slot's LSN —
// and fetches the whole index when neither does.
func TestSlotDamageFollower(t *testing.T) {
	primary, _ := storeHistory(t)
	var mu sync.Mutex
	var froms []string
	handler := serve.NewStoreHandler(primary, serve.Config{}).Mux()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/snapshot/stream") {
			mu.Lock()
			froms = append(froms, r.URL.Query().Get("from"))
			mu.Unlock()
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	follow := func(dir string) *replicate.Follower {
		mu.Lock()
		froms = nil
		mu.Unlock()
		f, err := replicate.Start(replicate.Options{PrimaryURL: srv.URL, Dir: dir, PollInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// Three restarts, each installing the primary's newest index: the
	// first and the third into slot-a.
	h := slotHistory{dir: t.TempDir()}
	for i, opt := range [][]float64{nil, {2, 0.1}, {0.1, 2}} {
		if opt != nil {
			if _, err := primary.Insert(opt); err != nil {
				t.Fatal(err)
			}
		}
		if i == 2 {
			h.earlier = readFile(t, filepath.Join(h.dir, "slot-a.idx"))
		}
		f := follow(h.dir)
		if i == 1 {
			h.older = f.AppliedLSN()
		}
		h.newest = f.AppliedLSN()
		f.Close()
	}
	if h.newest <= h.older {
		t.Fatalf("follower slots at LSNs %d and %d: an insert was filtered", h.older, h.newest)
	}
	eachSlotDamage(t, h, someCuts, func(t *testing.T, dir, damage string, lsn uint64, ok bool) {
		f := follow(dir)
		defer f.Close()
		want := ""
		if ok {
			want = strconv.FormatUint(lsn, 10)
		}
		mu.Lock()
		got := froms
		mu.Unlock()
		if len(got) != 1 || got[0] != want {
			t.Fatalf("%s: follower asked the primary for from=%q, want one ask from=%q", damage, got, want)
		}
		if f.AppliedLSN() != h.newest {
			t.Fatalf("%s: follower at LSN %d, want %d", damage, f.AppliedLSN(), h.newest)
		}
	})
}
