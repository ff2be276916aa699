package index

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestReadBytesRoundTrip loads the same X3 stream through Read, the copying
// byte reader, and the aliasing byte reader, and demands the three indexes
// re-serialize byte-identically.
func TestReadBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{11, 12} { // odd/even option counts: float64 block alignment differs
		ix := buildOrFail(t, randData(rng, n, 3), Config{Algorithm: PBAPlus, Tau: 3})
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		blob := buf.Bytes()
		streamed, err := Read(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		copied, err := ReadBytes(append([]byte(nil), blob...), false)
		if err != nil {
			t.Fatal(err)
		}
		if copied.MmapBytes() != 0 {
			t.Fatalf("alias=false produced MmapBytes=%d", copied.MmapBytes())
		}
		aliased, err := ReadBytes(append([]byte(nil), blob...), true)
		if err != nil {
			t.Fatal(err)
		}
		if aliased.MmapBytes() == 0 && nativeLittleEndian {
			t.Fatal("alias=true aliased nothing on a little-endian platform")
		}
		for name, got := range map[string]*Index{"streamed": streamed, "copied": copied, "aliased": aliased} {
			var out bytes.Buffer
			if _, err := got.WriteTo(&out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(out.Bytes(), blob) {
				t.Fatalf("%s: re-serialization differs from source stream", name)
			}
		}
	}
}

// TestOpenFileServesAndMutates maps a snapshot file and checks the index
// both answers queries identically to a heap load and survives an insert:
// the insert's rebuild must leave the aliased arenas alone, or the
// PROT_READ mapping would fault. A mapped index holds no full dataset, so
// ExtendTau refuses it.
func TestOpenFileServesAndMutates(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ix := buildOrFail(t, randData(rng, 14, 3), Config{Algorithm: PBAPlus, Tau: 3})
	path := filepath.Join(t.TempDir(), "snap.tlx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.CloseBacking()
	w := []float64{0.3, 0.5}
	want, _ := ix.TopK(w, 3)
	if got, _ := mapped.TopK(w, 3); !equalInt32s(got, want) {
		t.Fatalf("mmap-backed top-k %v, heap top-k %v", got, want)
	}
	// Unlinking must not invalidate the mapping (snapshot pruning races a
	// serving follower).
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if got, _ := mapped.TopK(w, 3); !equalInt32s(got, want) {
		t.Fatalf("top-k after unlink %v, want %v", got, want)
	}
	if _, err := mapped.InsertOption([]float64{0.42, 0.17, 0.33}); err != nil {
		t.Fatal(err)
	}
	if err := mapped.ExtendTau(4); err != ErrNeedsFullData {
		t.Fatalf("ExtendTau on a mapped index: err %v, want ErrNeedsFullData", err)
	}
	if err := mapped.Validate(false); err != nil {
		t.Fatalf("mutated mmap-backed index invalid: %v", err)
	}
	if err := mapped.CloseBacking(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.CloseBacking(); err != nil {
		t.Fatal(err) // idempotent
	}
}

// TestOpenFileCorrupt verifies a damaged snapshot file is rejected with
// ErrBadFormat through the mmap path, not served.
func TestOpenFileCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	ix := buildOrFail(t, randData(rng, 10, 3), Config{Algorithm: PBAPlus, Tau: 2})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	dir := t.TempDir()
	cases := map[string][]byte{
		"truncated": blob[:len(blob)/2],
		"bitflip":   append([]byte(nil), blob...),
	}
	cases["bitflip"][len(blob)/3] ^= 0x40
	for name, data := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(path); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s: %v does not wrap ErrBadFormat", name, err)
		}
	}
	if _, err := OpenFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file: no error")
	}
}

func equalInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
