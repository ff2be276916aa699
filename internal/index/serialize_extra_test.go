package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
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
// must be refused as ErrBadFormat before any count sizes an allocation — in
// every format and through both entry points. (The X3 stream decoder this
// replaced allocated 1 GiB for the first case, the X2 one asked for 6 GiB.)
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
		"X2 options": words(magicX2, 3, 9, 0, huge),
		"X2 cells":   words(magicX2, 3, 9, 0, 0, huge),
		"X2 list":    words(magicX2, 3, 9, 0, 0, 1, 0, -1, huge),
		"X1 options": words(magicX1, 3, 9, huge),
		"X1 cells":   words(magicX1, 3, 9, 0, huge),
		"X1 list":    words(magicX1, 3, 9, 0, 1, 0, -1, huge),
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
