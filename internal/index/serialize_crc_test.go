package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// TestReadLegacyX1Stream and TestReadLegacyX2Stream: the X1 and X2 streams
// of earlier versions are refused as ErrBadFormat naming the retired
// version, through both entry points and before any count in them sizes an
// allocation.
func TestReadLegacyX1Stream(t *testing.T) { checkRetiredStream(t, '1') }

func TestReadLegacyX2Stream(t *testing.T) { checkRetiredStream(t, '2') }

// checkRetiredStream offers the loaders a valid X3 stream relabeled as
// version v, and a header under v's magic claiming 1<<28 options.
func checkRetiredStream(t *testing.T, v byte) {
	rng := rand.New(rand.NewSource(71))
	ix := buildOrFail(t, randData(rng, 18, 3), Config{Algorithm: PBAPlus, Tau: 3})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	relabeled := buf.Bytes()
	relabeled[7] = v
	hostile := append([]byte("TLVLIDX"), v)
	for _, w := range []int32{3, 9, 0, 1 << 28} {
		hostile = binary.LittleEndian.AppendUint32(hostile, uint32(w))
	}
	for _, blob := range [][]byte{relabeled, hostile} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(blob))
		_, berr := ReadBytes(blob, true)
		runtime.ReadMemStats(&after)
		for _, e := range []error{err, berr} {
			if !errors.Is(e, ErrBadFormat) || !strings.Contains(fmt.Sprint(e), "retired format TLVLIDX"+string(v)) {
				t.Errorf("err = %v, want ErrBadFormat naming retired format TLVLIDX%c", e, v)
			}
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("allocated %d bytes before refusing", got)
		}
	}
}

func TestInputOptionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ix := buildOrFail(t, randData(rng, 25, 3), Config{Algorithm: PBAPlus, Tau: 2})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.InputOptions != 25 {
		t.Errorf("InputOptions = %d, want 25", got.Stats.InputOptions)
	}
}

// TestReadTruncatedX3 demands the sentinel, not just any error: every
// truncation point must surface as ErrBadFormat.
func TestReadTruncatedX3(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ix := buildOrFail(t, randData(rng, 15, 3), Config{Algorithm: PBAPlus, Tau: 2})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for cut := 0; cut < len(blob); cut++ {
		_, err := Read(bytes.NewReader(blob[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes loaded", cut, len(blob))
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrBadFormat", cut, err)
		}
	}
}

// TestReadBitFlippedX3: the CRC32 footer must catch any single-bit
// corruption that the structural checks let through.
func TestReadBitFlippedX3(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	ix := buildOrFail(t, randData(rng, 15, 3), Config{Algorithm: PBAPlus, Tau: 2})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for pos := 0; pos < len(blob); pos++ {
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 1 << uint(pos%8)
		_, err := Read(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("bit flip at byte %d loaded garbage", pos)
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("bit flip at byte %d: error %v does not wrap ErrBadFormat", pos, err)
		}
	}
}
