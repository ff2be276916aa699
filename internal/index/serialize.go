package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Serialization format X3: a little-endian binary stream holding the
// filtered options and the implicit cells (level, option, edges, bounding
// set). The full dataset is not serialized; a loaded index answers queries
// up to τ. The byte size of this encoding is the "index size" metric of
// Figure 10.
//
// The stream mirrors the in-memory CSR layout (csr.go), so loading is a few
// large reads into exactly the arrays queries traverse — no per-cell slice
// allocations — and writing is a few large appends from them:
//
//	magic "TLVLIDX3"
//	dim, τ, input-dataset cardinality, option count n  int32 each
//	n original ids                                     int32
//	n·dim option coordinates                           float64
//	cell count m, then m levels, then m options        int32
//	m parent, m child, m bound list lengths            int32; bound -1 = nil
//	per kind (parents, children, bounds): arena
//	length, then the lists concatenated in cell order  int32
//	CRC32 (IEEE) of every preceding byte, magic too    uint32
//
// A bound length of -1 encodes the nil (Definition-2) bound. The input
// cardinality lets a loaded index assign the same external ids to later
// inserts as the index it was saved from — the durable store replays its
// WAL against snapshots and needs that determinism.
//
// X3 is the only version read. The X1 and X2 streams of earlier versions
// (TLVLIDX1, TLVLIDX2) are refused with ErrBadFormat naming the version;
// such a file is rebuilt from its dataset with lvbuild.

var magicX3 = [8]byte{'T', 'L', 'V', 'L', 'I', 'D', 'X', '3'}

// ErrBadFormat reports a corrupt or foreign stream.
var ErrBadFormat = errors.New("index: bad serialization format")

// WriteTo serializes the index in the X3 format with one Write of the whole
// encoding. It returns the number of bytes written, checksum footer
// included.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(ix.encodeX3())
	return int64(n), err
}

// x3Size is the byte length of the index's X3 encoding.
func (ix *Index) x3Size() int {
	f, n, m := ix.flat, len(ix.Pts), len(ix.Cells)
	arenas := len(f.parents) + len(f.children) + len(f.bounds)
	return len(magicX3) + 4*4 + 4*n + 8*n*ix.Dim + 4 + 5*4*m + 3*4 + 4*arenas + 4
}

// encodeX3 returns the index's X3 encoding in one buffer of exactly
// x3Size bytes. The arenas are written as they are: a frozen index's arenas
// hold its lists concatenated in cell order, which is the stream's layout.
func (ix *Index) encodeX3() []byte {
	le, f := binary.LittleEndian, ix.flat
	b := append(make([]byte, 0, ix.x3Size()), magicX3[:]...)
	for _, v := range [...]int{ix.Dim, ix.Tau, ix.Stats.InputOptions, len(ix.Pts)} {
		b = le.AppendUint32(b, uint32(v))
	}
	for _, oid := range ix.OrigIDs {
		b = le.AppendUint32(b, uint32(oid))
	}
	for _, p := range ix.Pts {
		for _, v := range p {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	b = le.AppendUint32(b, uint32(len(ix.Cells)))
	for i := range ix.Cells {
		b = le.AppendUint32(b, uint32(ix.Cells[i].Level))
	}
	for i := range ix.Cells {
		b = le.AppendUint32(b, uint32(ix.Cells[i].Opt))
	}
	for i := range f.spans {
		b = le.AppendUint32(b, uint32(f.spans[i].parentLen))
	}
	for i := range f.spans {
		b = le.AppendUint32(b, uint32(f.spans[i].childLen))
	}
	for i := range f.spans {
		b = le.AppendUint32(b, uint32(f.spans[i].boundLen))
	}
	for _, arena := range [...][]int32{f.parents, f.children, f.bounds} {
		b = le.AppendUint32(b, uint32(len(arena)))
		for _, v := range arena {
			b = le.AppendUint32(b, uint32(v))
		}
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// Read deserializes an index previously written with WriteTo. It reads r to
// its end and decodes the bytes with ReadBytes, so the stream and byte
// loaders are one decoder: every failure — a read error, foreign or retired
// magic, structural corruption, truncation, checksum mismatch — reports
// ErrBadFormat, and no count in the stream sizes an allocation before the
// bytes it stands for are known to be there.
func Read(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return ReadBytes(data, false)
}

// checkX3Header validates the four-word X3 header.
func checkX3Header(dim, tau, inputOptions, nOpts int32) error {
	if dim < 2 || tau < 1 || dim > 1<<20 || tau > 1<<20 {
		return ErrBadFormat
	}
	if inputOptions < 0 || nOpts < 0 || nOpts > 1<<28 {
		return ErrBadFormat
	}
	return nil
}

// checkX3CellMeta validates the per-cell level and option columns. A cell
// lives at a level 0..τ: the rows and box columns have a slot for no other.
func checkX3CellMeta(levels, opts []int32, tau, nOpts int32) error {
	for i := range levels {
		if levels[i] < 0 || levels[i] > tau {
			return fmt.Errorf("%w: cell %d level %d", ErrBadFormat, i, levels[i])
		}
		if opts[i] < -1 || opts[i] >= nOpts {
			return fmt.Errorf("%w: cell %d option %d", ErrBadFormat, i, opts[i])
		}
	}
	return nil
}

// x3ListTotals validates the per-cell list-length columns and sums them
// into per-kind arena totals. minLen/maxLen: parent and child lists hold
// cell ids, bound lists hold option ids and admit -1 (nil bound).
func x3ListTotals(lens [3][]int32, nCells, nOpts int32) ([3]int64, error) {
	var totals [3]int64
	for ki, ls := range lens {
		minLen, maxLen := int32(0), nCells
		if ki == 2 {
			minLen, maxLen = -1, nOpts
		}
		for i, ln := range ls {
			if ln < minLen || ln > maxLen {
				return totals, fmt.Errorf("%w: cell %d list %d length %d", ErrBadFormat, i, ki, ln)
			}
			if ln > 0 {
				totals[ki] += int64(ln)
			}
		}
		if totals[ki] > 1<<30 {
			return totals, fmt.Errorf("%w: arena %d overflows", ErrBadFormat, ki)
		}
	}
	return totals, nil
}

// checkX3Arena validates every entry of one adjacency arena: parent/child
// entries (kinds 0, 1) are cell ids, bound entries (kind 2) option ids.
func checkX3Arena(ki int, arena []int32, nCells, nOpts int32) error {
	hi := nCells
	if ki == 2 {
		hi = nOpts
	}
	for _, v := range arena {
		if v < 0 || v >= hi {
			return fmt.Errorf("%w: arena %d entry %d out of range", ErrBadFormat, ki, v)
		}
	}
	return nil
}

// buildX3 assembles an index from decoded, already range-checked X3
// columns and runs the final structural validation. The coords and arena
// slices are retained as-is — Pts rows sub-slice coords, the flatDAG
// arenas are the arena slices — so a caller that aliased them into a
// memory mapping gets a zero-copy index.
func buildX3(dim, tau, inputOptions int32, origIDs []int32, coords []float64,
	levels, opts []int32, lens, arenas [3][]int32) (*Index, error) {
	nOpts, nCells := int32(len(origIDs)), int32(len(levels))
	ix := &Index{Dim: int(dim), Tau: int(tau)}
	ix.Stats.InputOptions = int(inputOptions)
	ix.OrigIDs = make([]int, nOpts)
	for i, v := range origIDs {
		ix.OrigIDs[i] = int(v)
	}
	ix.Pts = make([][]float64, nOpts)
	for i := range ix.Pts {
		ix.Pts[i] = coords[i*int(dim) : (i+1)*int(dim) : (i+1)*int(dim)]
	}
	ix.Cells = make([]Cell, nCells)
	f := &flatDAG{
		spans:    make([]cellSpans, nCells),
		parents:  arenas[0],
		children: arenas[1],
		bounds:   arenas[2],
	}
	var offs [3]int32
	for i := int32(0); i < nCells; i++ {
		c := &ix.Cells[i]
		c.ID, c.Level, c.Opt = i, levels[i], opts[i]
		s := &f.spans[i]
		s.parentOff, s.parentLen = offs[0], lens[0][i]
		offs[0] += lens[0][i]
		s.childOff, s.childLen = offs[1], lens[1][i]
		offs[1] += lens[1][i]
		s.boundOff, s.boundLen = offs[2], lens[2][i]
		if lens[2][i] > 0 {
			offs[2] += lens[2][i]
		}
	}
	f.fillDerived(ix)
	ix.flat = f
	ix.rebuildLevels()
	if err := ix.Validate(false); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return ix, nil
}

// SizeBytes returns the serialized size of the index — the paper's index
// size metric — without encoding it.
func (ix *Index) SizeBytes() int64 { return int64(ix.x3Size()) }
