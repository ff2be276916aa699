package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"tlevelindex/datagen"
)

// failingWriter errors after n bytes, driving WriteTo's error branches.
type failingWriter struct {
	n int
}

var errWriterFull = errors.New("writer full")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errWriterFull
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errWriterFull
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriteToFailingWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ix := buildOrFail(t, randData(rng, 15, 3), Config{Algorithm: PBAPlus, Tau: 2})
	full, err := ix.WriteTo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 4, 16, int(full) / 2} {
		if _, err := ix.WriteTo(&failingWriter{n: budget}); err == nil {
			t.Errorf("budget %d: expected write error", budget)
		}
	}
}

func TestReadTruncatedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ix := buildOrFail(t, randData(rng, 15, 3), Config{Algorithm: PBAPlus, Tau: 2})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// Every truncation point must fail cleanly, never panic.
	for _, frac := range []int{1, 2, 4, 8} {
		cut := len(blob) / frac
		if cut == len(blob) {
			cut--
		}
		if _, err := Read(bytes.NewReader(blob[:cut])); err == nil {
			t.Errorf("truncated stream (%d bytes) accepted", cut)
		}
	}
	// Corrupting the cell count must be caught by the sanity bounds.
	bad := append([]byte(nil), blob...)
	// The cell count sits right after the options block; flipping high bits
	// anywhere in the numeric payload must never crash Read.
	for i := 8; i < len(bad); i += 97 {
		bad[i] ^= 0xFF
	}
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Log("corrupted stream happened to parse — acceptable only if validation passed")
	}
}

// TestReadHostileHeaders: a few dozen bytes claiming 1<<28 options or cells
// must be refused as ErrBadFormat before any count sizes an allocation,
// through both entry points. (The X3 stream decoder this replaced allocated
// 1 GiB for the first case.) checkRetiredStream holds the retired X1/X2
// headers to the same.
func TestReadHostileHeaders(t *testing.T) {
	words := func(magic [8]byte, ws ...int32) []byte {
		b := append([]byte(nil), magic[:]...)
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint32(b, uint32(w))
		}
		return b
	}
	const huge = 1 << 28
	cases := map[string][]byte{
		"X3 options": words(magicX3, 3, 9, 0, huge),
		"X3 cells":   words(magicX3, 3, 9, 0, 0, huge),
	}
	for name, blob := range cases {
		for entry, read := range map[string]func() error{
			"Read":      func() error { _, err := Read(bytes.NewReader(blob)); return err },
			"ReadBytes": func() error { _, err := ReadBytes(blob, true); return err },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFormat) {
				t.Errorf("%s via %s: err = %v, want ErrBadFormat", name, entry, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("%s via %s: allocated %d bytes before refusing", name, entry, got)
			}
		}
	}
}

func TestSizeBytesOnLoadedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ix := buildOrFail(t, randData(rng, 15, 3), Config{Algorithm: PBAPlus, Tau: 2})
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SizeBytes() != n {
		t.Errorf("loaded index reserializes to %d bytes, want %d", loaded.SizeBytes(), n)
	}
}

// TestWriteToGolden pins the sha256 of the X3 bytes of two small seeded
// PBA⁺ builds. The digests were taken from the per-value writer the append
// encoder replaced: the two must write the same bytes, which is what lets a
// file written by either load under the other.
func TestWriteToGolden(t *testing.T) {
	for _, c := range []struct {
		dist      datagen.Distribution
		n, d, tau int
		sum       string
	}{
		{datagen.IND, 500, 3, 4, "62c73d5904a1b488e8e70ac07dd066e34320a0c4b1ddb37a44e8718da44e6a88"},
		{datagen.ANTI, 300, 3, 3, "2fc28c93e81d26bea2b3d3382d7c274b629d3f22722a44dc4e7710ee30a18f8c"},
	} {
		ix := buildOrFail(t, datagen.Generate(c.dist, c.n, c.d, 1), Config{Algorithm: PBAPlus, Tau: c.tau})
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.sum {
			t.Errorf("%v n=%d d=%d τ=%d: sha256 %s, want %s", c.dist, c.n, c.d, c.tau, got, c.sum)
		}
	}
}

// TestCodecAllocs pins both directions of the codec on a d=3 τ=4 index of a
// few hundred cells, many with several parents. WriteTo allocates the one
// buffer it encodes into. ReadBytes (zero copy) allocates the index's
// columns and per-level lists, a count set by τ, not by the cells; Validate
// compares parents' result sets in two reused buffers. Excluded under
// -race, which inflates allocation counts.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts; the pin runs in the non-race test pass")
	}
	ix := buildOrFail(t, datagen.Generate(datagen.IND, 500, 3, 1), Config{Algorithm: PBAPlus, Tau: 4})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := bytes.Clone(buf.Bytes())
	write := testing.AllocsPerRun(20, func() {
		buf.Reset()
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	})
	read := testing.AllocsPerRun(20, func() {
		if _, err := ReadBytes(blob, true); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d cells: WriteTo %.0f allocs, ReadBytes %.0f allocs", ix.NumCells(), write, read)
	if write > 2 {
		t.Errorf("WriteTo into a bytes.Buffer = %.0f allocs, want <= 2", write)
	}
	if read > 64 {
		t.Errorf("ReadBytes = %.0f allocs, want <= 64", read)
	}
}

// TestAppendBinaryAllocs pins the one encoder the store's snapshots and
// ships use: AppendBinary(nil) allocates the encoding once, appending into
// a buffer with room allocates nothing, and an encoding appended after
// other bytes checksums only itself.
func TestAppendBinaryAllocs(t *testing.T) {
	ix := buildOrFail(t, datagen.Generate(datagen.IND, 500, 3, 1), Config{Algorithm: PBAPlus, Tau: 4})
	want := serializeOrFail(t, ix)
	if got := ix.AppendBinary([]byte("head")); !bytes.Equal(got[4:], want) {
		t.Fatal("AppendBinary after other bytes differs from WriteTo")
	}
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts; the pin runs in the non-race test pass")
	}
	fresh := testing.AllocsPerRun(20, func() { ix.AppendBinary(nil) })
	buf := make([]byte, 0, len(want))
	reuse := testing.AllocsPerRun(20, func() { buf = ix.AppendBinary(buf[:0]) })
	if fresh > 1 || reuse > 0 {
		t.Errorf("AppendBinary: %.0f allocs into nil, %.0f into a buffer with room; want <= 1 and 0", fresh, reuse)
	}
}
