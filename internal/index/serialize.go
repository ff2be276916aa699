package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// Serialization format: a little-endian binary stream holding the filtered
// options and the implicit cells (level, option, edges, bounding set). The
// full dataset is not serialized; a loaded index answers queries up to τ.
// The byte size of this encoding is the "index size" metric of Figure 10.
//
// Three on-disk versions exist. The current X3 format mirrors the in-memory
// CSR layout (csr.go): column arrays of per-cell levels, options, and list
// lengths followed by one flat int32 arena per adjacency kind, so loading is
// a few large reads into exactly the arrays queries traverse — no per-cell
// slice allocations. A bound length of -1 encodes the nil (Definition-2)
// bound. Like X2 it carries the input-dataset cardinality (so a loaded
// index assigns the same external ids to later inserts as the index it was
// saved from — the durable store replays its WAL against snapshots and
// needs that determinism) and a trailing CRC32 (IEEE) over every preceding
// byte, magic included. The per-cell X2 stream and the legacy X1 stream (no
// cardinality, no checksum) are still read.

var (
	magicX1 = [8]byte{'T', 'L', 'V', 'L', 'I', 'D', 'X', '1'}
	magicX2 = [8]byte{'T', 'L', 'V', 'L', 'I', 'D', 'X', '2'}
	magicX3 = [8]byte{'T', 'L', 'V', 'L', 'I', 'D', 'X', '3'}
)

// ErrBadFormat reports a corrupt or foreign stream.
var ErrBadFormat = errors.New("index: bad serialization format")

// WriteTo serializes the index in the X3 format. It returns the number of
// bytes written, checksum footer included. The adjacency is emitted through
// the storage-mode accessors, so both frozen and staging indexes serialize
// identically.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw, h: crc32.NewIEEE()}
	put := func(v int32) error { return binary.Write(cw, binary.LittleEndian, v) }
	if _, err := cw.Write(magicX3[:]); err != nil {
		return cw.n, err
	}
	for _, v := range []int32{int32(ix.Dim), int32(ix.Tau),
		int32(ix.Stats.InputOptions), int32(len(ix.Pts))} {
		if err := put(v); err != nil {
			return cw.n, err
		}
	}
	for _, oid := range ix.OrigIDs {
		if err := put(int32(oid)); err != nil {
			return cw.n, err
		}
	}
	for _, p := range ix.Pts {
		for _, v := range p {
			if err := binary.Write(cw, binary.LittleEndian, math.Float64bits(v)); err != nil {
				return cw.n, err
			}
		}
	}
	if err := put(int32(len(ix.Cells))); err != nil {
		return cw.n, err
	}
	for i := range ix.Cells {
		if err := put(ix.Cells[i].Level); err != nil {
			return cw.n, err
		}
	}
	for i := range ix.Cells {
		if err := put(ix.Cells[i].Opt); err != nil {
			return cw.n, err
		}
	}
	// Column arrays of list lengths, then the three arenas (each prefixed
	// with its total length). Bound length -1 encodes the nil bound.
	kinds := [3]func(int32) []int32{
		ix.parentsOf,
		ix.childrenOf,
		func(id int32) []int32 {
			b, isNil := ix.boundOf(id)
			if isNil {
				return nil
			}
			if b == nil {
				b = []int32{}
			}
			return b
		},
	}
	for ki, lists := range kinds {
		for i := range ix.Cells {
			lst := lists(int32(i))
			ln := int32(len(lst))
			if ki == 2 && lst == nil {
				ln = -1 // nil bound; parent/child lists never use -1
			}
			if err := put(ln); err != nil {
				return cw.n, err
			}
		}
	}
	for _, lists := range kinds {
		total := 0
		for i := range ix.Cells {
			total += len(lists(int32(i)))
		}
		if err := put(int32(total)); err != nil {
			return cw.n, err
		}
		for i := range ix.Cells {
			for _, v := range lists(int32(i)) {
				if err := put(v); err != nil {
					return cw.n, err
				}
			}
		}
	}
	sum := cw.h.Sum32()
	if err := binary.Write(cw, binary.LittleEndian, sum); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

type countWriter struct {
	w io.Writer
	n int64
	h hash.Hash32
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.h.Write(p[:n]) // hash.Hash Write never fails
	return n, err
}

// Read deserializes an index previously written with WriteTo, accepting the
// current X3 stream and the legacy X2 and X1 streams. It reads r to its end
// and decodes the bytes with ReadBytes, so the stream and byte loaders are
// one decoder: every failure — a read error, foreign magic, structural
// corruption, truncation, checksum mismatch — reports ErrBadFormat, and no
// count in the stream sizes an allocation before the bytes it stands for
// are known to be there.
func Read(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return ReadBytes(data, false)
}

// readLegacy decodes the per-cell X2 stream, or with withCRC false the X1
// stream (no dataset cardinality, no checksum); data still starts with the
// magic. Each count is checked against the bytes that remain before it
// sizes an allocation — every option takes at least 4+8·dim bytes, every
// cell at least six words, every list entry one — so a hostile header
// cannot ask for more memory than a small multiple of the stream's length.
func readLegacy(data []byte, withCRC bool) (*Index, error) {
	c := byteCursor{data: data, off: len(magicX1)}
	get := func() (int32, error) {
		b, err := c.take(4)
		if err != nil {
			return 0, err
		}
		return int32(binary.LittleEndian.Uint32(b)), nil
	}
	fits := func(n int32, each int64) bool {
		return n >= 0 && int64(n)*each <= int64(len(c.data)-c.off)
	}
	dim, err := get()
	if err != nil {
		return nil, err
	}
	tau, err := get()
	if err != nil {
		return nil, err
	}
	if dim < 2 || tau < 1 || dim > 1<<20 || tau > 1<<20 {
		return nil, ErrBadFormat
	}
	inputOptions := int32(0)
	if withCRC {
		if inputOptions, err = get(); err != nil {
			return nil, err
		}
		if inputOptions < 0 {
			return nil, ErrBadFormat
		}
	}
	nOpts, err := get()
	if err != nil {
		return nil, err
	}
	if !fits(nOpts, 4+8*int64(dim)) {
		return nil, ErrBadFormat
	}
	ix := &Index{Dim: int(dim), Tau: int(tau)}
	ix.Stats.InputOptions = int(inputOptions)
	ix.Pts = make([][]float64, nOpts)
	ix.OrigIDs = make([]int, nOpts)
	for i := int32(0); i < nOpts; i++ {
		oid, err := get()
		if err != nil {
			return nil, err
		}
		ix.OrigIDs[i] = int(oid)
		b, err := c.take(8 * int(dim))
		if err != nil {
			return nil, err
		}
		p := make([]float64, dim)
		for k := range p {
			p[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
		}
		ix.Pts[i] = p
	}
	nCells, err := get()
	if err != nil {
		return nil, err
	}
	if nCells < 1 || !fits(nCells, 6*4) {
		return nil, ErrBadFormat
	}
	ix.Cells = make([]Cell, nCells)
	for i := int32(0); i < nCells; i++ {
		cell := &ix.Cells[i]
		cell.ID = i
		if cell.Level, err = get(); err != nil {
			return nil, err
		}
		if cell.Level < 0 || cell.Level > tau {
			return nil, fmt.Errorf("%w: cell %d level %d", ErrBadFormat, i, cell.Level)
		}
		if cell.Opt, err = get(); err != nil {
			return nil, err
		}
		for li, dst := range []*[]int32{&cell.Parents, &cell.Children, &cell.Bound} {
			ln, err := get()
			if err != nil {
				return nil, err
			}
			if !fits(ln, 4) {
				return nil, fmt.Errorf("%w: list %d length %d", ErrBadFormat, li, ln)
			}
			// Parent/child entries are cell ids, bound entries option ids.
			hi := nCells
			if li == 2 {
				hi = nOpts
			}
			lst := make([]int32, ln)
			for j := range lst {
				if lst[j], err = get(); err != nil {
					return nil, err
				}
				if lst[j] < 0 || lst[j] >= hi {
					return nil, fmt.Errorf("%w: list %d entry %d out of range", ErrBadFormat, li, lst[j])
				}
			}
			*dst = lst
		}
		nilFlag, err := get()
		if err != nil {
			return nil, err
		}
		if nilFlag == 1 {
			cell.Bound = nil
		}
	}
	if withCRC {
		if err := c.checkCRC(); err != nil {
			return nil, err
		}
	}
	ix.rebuildLevels()
	if err := ix.Validate(false); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	// Legacy streams load into the staging slices; freeze to the CSR form so
	// a loaded index serves queries from flat storage like a built one.
	ix.freeze()
	return ix, nil
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
// size metric.
func (ix *Index) SizeBytes() int64 {
	n, err := ix.WriteTo(io.Discard)
	if err != nil {
		return -1
	}
	return n
}
