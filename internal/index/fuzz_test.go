package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

// FuzzReadIndex exercises the binary index deserializer with mutated
// streams: it must never panic and must validate whatever it accepts.
func FuzzReadIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(61))
	data := randData(rng, 12, 3)
	ix, err := Build(data, Config{Algorithm: PBAPlus, Tau: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, retired := range []byte{'1', '2'} { // X3 bytes under a retired magic
		stub := append([]byte(nil), buf.Bytes()...)
		stub[7] = retired
		f.Add(stub)
	}
	for _, blob := range levelOutsideTau(f, ix) {
		f.Add(blob)
	}
	// Valid streams of other builders and dimensions: IBA's and BSL's DAGs
	// differ from PBA⁺'s, d=2 cells have one-dimensional regions, d=4
	// cells wider rows.
	for _, c := range []struct {
		data [][]float64
		cfg  Config
	}{
		{data, Config{Algorithm: IBA, Tau: 2}},
		{data, Config{Algorithm: BSL, Tau: 2}},
		{randData(rng, 12, 2), Config{Algorithm: PBAPlus, Tau: 3}},
		{randData(rng, 12, 4), Config{Algorithm: PBAPlus, Tau: 2}},
	} {
		other, err := Build(c.data, c.cfg)
		if err != nil {
			f.Fatal(err)
		}
		var b bytes.Buffer
		if _, err := other.WriteTo(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte("TLVLIDX1 not really"))
	f.Add([]byte("TLVLIDX3 not really"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		// A heap load and a zero-copy load are the one decoder with aliasing
		// off and on; an input must pass or fail on both alike (a corrupt
		// mmap'd snapshot can never sneak past where a heap load refuses) and
		// decode to the same index.
		got, err := Read(bytes.NewReader(blob))
		bgot, berr := ReadBytes(append([]byte(nil), blob...), true)
		if (err == nil) != (berr == nil) {
			t.Fatalf("Read err=%v but aliasing ReadBytes err=%v", err, berr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFormat) || !errors.Is(berr, ErrBadFormat) {
				t.Fatalf("errors %v / %v do not both wrap ErrBadFormat", err, berr)
			}
			return
		}
		var a, b bytes.Buffer
		for _, l := range []struct {
			name string
			ix   *Index
			out  *bytes.Buffer
		}{{"copying", got, &a}, {"aliasing", bgot, &b}} {
			if verr := l.ix.Validate(false); verr != nil {
				t.Fatalf("the %s decoder accepted an invalid index: %v", l.name, verr)
			}
			if _, werr := l.ix.WriteTo(l.out); werr != nil {
				t.Fatal(werr)
			}
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("the copying and aliasing decoders built different indexes from one input")
		}
	})
}

// levelOutsideTau returns ix serialized, checksum intact, first with τ one lower in the header, so the deepest level's cells
// lie past τ under parents at τ, then with its last cell at level -1.
func levelOutsideTau(tb testing.TB, ix *Index) [][]byte {
	var out [][]byte
	emit := func() {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	ix.Tau--
	emit()
	ix.Tau++
	last := &ix.Cells[len(ix.Cells)-1]
	keep := last.Level
	last.Level = -1
	emit()
	last.Level = keep
	return out
}

// TestReadRejectsLevelOutsideTau: every loader refuses a cell outside
// levels 0..τ, for which the rows and box columns have no slot, with
// ErrBadFormat. A level-τ+1 cell under a level-τ parent passes Validate, and
// the loaders once accepted it.
func TestReadRejectsLevelOutsideTau(t *testing.T) {
	ix := buildOrFail(t, randData(rand.New(rand.NewSource(61)), 12, 3), Config{Algorithm: PBAPlus, Tau: 2})
	for i, blob := range levelOutsideTau(t, ix) {
		if _, err := Read(bytes.NewReader(blob)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("stream %d: Read err = %v, want ErrBadFormat", i, err)
		}
		if _, err := ReadBytes(blob, true); !errors.Is(err, ErrBadFormat) {
			t.Errorf("stream %d: aliasing ReadBytes err = %v, want ErrBadFormat", i, err)
		}
	}
}

// TestReadX3BogusWords poisons every aligned 32-bit word of a valid X3
// stream and recomputes the CRC footer, so the corruption reaches the
// structural checks instead of being caught by the checksum. Bogus CSR
// lengths, offsets, and arena values must surface as ErrBadFormat — never a
// panic or an out-of-range slice — and anything still accepted must
// validate.
func TestReadX3BogusWords(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ix := buildOrFail(t, randData(rng, 12, 3), Config{Algorithm: PBAPlus, Tau: 2})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	body := blob[: len(blob)-4 : len(blob)-4] // strip the CRC footer
	for _, poison := range []uint32{0x7fffffff, 0xffffffff, 1 << 20} {
		for off := len(magicX3); off+4 <= len(body); off += 4 {
			mut := append([]byte(nil), body...)
			binary.LittleEndian.PutUint32(mut[off:], poison)
			mut = binary.LittleEndian.AppendUint32(mut, crc32.ChecksumIEEE(mut))
			got, err := Read(bytes.NewReader(mut))
			_, berr := ReadBytes(mut, true)
			if (err == nil) != (berr == nil) {
				t.Fatalf("poison %#x at %d: Read err=%v, ReadBytes err=%v", poison, off, err, berr)
			}
			if err != nil {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("poison %#x at %d: error %v does not wrap ErrBadFormat", poison, off, err)
				}
				if !errors.Is(berr, ErrBadFormat) {
					t.Fatalf("poison %#x at %d: ReadBytes error %v does not wrap ErrBadFormat", poison, off, berr)
				}
				continue
			}
			if verr := got.Validate(false); verr != nil {
				t.Fatalf("poison %#x at %d: accepted an invalid index: %v", poison, off, verr)
			}
		}
	}
}

// TestReadRejectsBrokenRootPath: a well-checksummed stream whose level
// columns pass every range check but whose cells do not descend to the root
// — a level-1 cell with no parent, or a level-0 cell that carries an option
// — under a cell with two parents. The loader must refuse it as
// ErrBadFormat: comparing the parents' result sets walks those paths, and
// once indexed out of range on them.
func TestReadRejectsBrokenRootPath(t *testing.T) {
	pts := [][]float64{{1, 0}, {0, 1}, {0.5, 0.5}}
	for name, cells := range map[string][]Cell{
		"orphan": {
			{Level: 0, Opt: NoOption},
			{Level: 2, Opt: 0, Parents: []int32{2, 3}},
			{Level: 1, Opt: 1},
			{Level: 1, Opt: 2},
		},
		"level-0 option": {
			{Level: 0, Opt: NoOption},
			{Level: 2, Opt: 0, Parents: []int32{2, 3}},
			{Level: 1, Opt: 1, Parents: []int32{4}},
			{Level: 1, Opt: 2, Parents: []int32{0}},
			{Level: 0, Opt: 2},
		},
	} {
		ix := &Index{Dim: 2, Tau: 2, Pts: pts, OrigIDs: []int{0, 1, 2}, Cells: cells}
		for i := range ix.Cells {
			ix.Cells[i].ID, ix.Cells[i].Bound = int32(i), []int32{}
		}
		ix.freeze()
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBytes(buf.Bytes(), true); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}
}
