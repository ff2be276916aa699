package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"tlevelindex/internal/dataio"
)

// X3 decoding, zero-copy where asked for. ReadBytes decodes a serialized
// index directly from a byte buffer — Read's copy of its stream, or a
// memory-mapped file — and, with alias set and where the platform allows,
// materializes the large arrays (option coordinates and the three CSR
// adjacency arenas) as slices aliasing the buffer instead of heap copies.
// The CRC footer is verified once over the whole buffer. It is the only
// decoder: a heap load and an mmap load differ in nothing but whether an
// array is copied, so a corrupt file is rejected identically on both.
//
// Which load a caller uses follows from its role, not from a setting: the
// durable store, the writer, reads its snapshot onto the heap (its first
// accepted insert rebuilds the cells anyway, and pruning later unlinks the
// file a mapping would alias), and a follower, read-only and replaced whole
// on each publish, opens its copy with OpenFile.
//
// Aliasing rules: the buffer must outlive the index (OpenFile parks the
// mapping on the index, released by CloseBacking), the platform must be
// little-endian (the on-disk encoding), and each array's byte offset must
// satisfy the element alignment (int32 arrays always do under X3's layout;
// the float64 coordinate block does when the option count is even).
// Arrays that fail a condition are copied to the heap individually — the
// load degrades, never breaks. Mutating paths are alias-safe: nothing
// writes into the arenas or the coordinates, an insert appends fresh heap
// rows to Pts, and an insert or ExtendTau rebuilds the cells on the heap.

// nativeLittleEndian reports whether the running platform stores integers
// little-endian, which the X3 encoding requires for aliasing.
var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ReadBytes decodes a serialized index held in memory. With alias=true it
// decodes zero-copy where possible: the returned index's MmapBytes reports
// how many bytes ended up aliasing data rather than copied. Every failure
// reports ErrBadFormat.
func ReadBytes(data []byte, alias bool) (*Index, error) {
	ix, err := readBytes(data, alias)
	if err != nil && !errors.Is(err, ErrBadFormat) {
		// Truncations surface as io.ErrUnexpectedEOF from the cursor; fold
		// them into the sentinel so callers need one check.
		err = fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if err != nil {
		return nil, err
	}
	return ix, nil
}

func readBytes(data []byte, alias bool) (*Index, error) {
	if len(data) < len(magicX3) {
		return nil, io.ErrUnexpectedEOF
	}
	if magic := [8]byte(data[:8]); magic != magicX3 {
		if [7]byte(magic[:7]) == [7]byte(magicX3[:7]) && (magic[7] == '1' || magic[7] == '2') {
			return nil, fmt.Errorf("%w: retired format %s, rebuild the index from its dataset with lvbuild",
				ErrBadFormat, magic[:])
		}
		return nil, ErrBadFormat
	}
	c := byteCursor{data: data, off: len(magicX3)}
	hdr, _, err := c.int32s(4, false)
	if err != nil {
		return nil, err
	}
	dim, tau, inputOptions, nOpts := hdr[0], hdr[1], hdr[2], hdr[3]
	if err := checkX3Header(dim, tau, inputOptions, nOpts); err != nil {
		return nil, err
	}
	origIDs, _, err := c.int32s(int(nOpts), alias)
	if err != nil {
		return nil, err
	}
	coords, coordsAliased, err := c.float64s(int(nOpts)*int(dim), alias)
	if err != nil {
		return nil, err
	}
	cnt, _, err := c.int32s(1, false)
	if err != nil {
		return nil, err
	}
	nCells := cnt[0]
	if nCells < 1 || nCells > 1<<28 {
		return nil, ErrBadFormat
	}
	levels, _, err := c.int32s(int(nCells), alias)
	if err != nil {
		return nil, err
	}
	opts, _, err := c.int32s(int(nCells), alias)
	if err != nil {
		return nil, err
	}
	if err := checkX3CellMeta(levels, opts, tau, nOpts); err != nil {
		return nil, err
	}
	var lens [3][]int32
	for ki := range lens {
		if lens[ki], _, err = c.int32s(int(nCells), alias); err != nil {
			return nil, err
		}
	}
	totals, err := x3ListTotals(lens, nCells, nOpts)
	if err != nil {
		return nil, err
	}
	var arenas [3][]int32
	var aliasedBytes int64
	for ki := range arenas {
		sz, _, serr := c.int32s(1, false)
		if serr != nil {
			return nil, serr
		}
		if int64(sz[0]) != totals[ki] {
			return nil, fmt.Errorf("%w: arena %d length %d, want %d", ErrBadFormat, ki, sz[0], totals[ki])
		}
		arena, arenaAliased, aerr := c.int32s(int(totals[ki]), alias)
		if aerr != nil {
			return nil, aerr
		}
		if err := checkX3Arena(ki, arena, nCells, nOpts); err != nil {
			return nil, err
		}
		arenas[ki] = arena
		if arenaAliased {
			aliasedBytes += 4 * int64(len(arena))
		}
	}
	if err := c.checkCRC(); err != nil {
		return nil, err
	}
	ix, err := buildX3(dim, tau, inputOptions, origIDs, coords, levels, opts, lens, arenas)
	if err != nil {
		return nil, err
	}
	if coordsAliased {
		aliasedBytes += 8 * int64(len(coords))
	}
	ix.aliasedBytes = aliasedBytes
	return ix, nil
}

// byteCursor walks a byte buffer handing out typed array views, checking
// every length against the bytes left before anything is allocated for it.
type byteCursor struct {
	data []byte
	off  int
}

// take consumes n raw bytes; an overrun is a truncated stream.
func (c *byteCursor) take(n int) ([]byte, error) {
	if n < 0 || len(c.data)-c.off < n {
		return nil, io.ErrUnexpectedEOF
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

// checkCRC consumes the four-byte footer and compares it with the CRC32
// (IEEE) of every byte consumed before it, magic included.
func (c *byteCursor) checkCRC() error {
	sum := crc32.ChecksumIEEE(c.data[:c.off])
	ftr, err := c.take(4)
	if err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(ftr); got != sum {
		return fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrBadFormat, got, sum)
	}
	return nil
}

// int32s consumes n little-endian int32s, aliasing the buffer when allowed
// (little-endian platform, 4-byte alignment) and copying otherwise. The
// second result reports which happened.
func (c *byteCursor) int32s(n int, alias bool) ([]int32, bool, error) {
	b, err := c.take(4 * n)
	if err != nil || n == 0 {
		return nil, false, err
	}
	if alias && nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), true, nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, false, nil
}

// OpenFile loads a serialized index from a file, memory-mapping it when
// the platform supports it so the large arrays alias the page cache
// instead of being copied to the heap. When anything about the mapping
// path fails (mmap unsupported, empty file) or nothing ends up aliased
// (misaligned arrays, big-endian platform), it degrades to a plain heap
// load and the returned index carries no backing. A corrupt file reports
// ErrBadFormat either way.
func OpenFile(path string) (*Index, error) {
	m, err := dataio.MapFile(path)
	if err != nil {
		return openFileHeap(path)
	}
	ix, err := ReadBytes(m.Bytes(), true)
	if err != nil {
		m.Close()
		return nil, err
	}
	if ix.aliasedBytes == 0 {
		// Everything was copied; keeping the mapping would only pin pages.
		m.Close()
		return ix, nil
	}
	ix.backing = m
	return ix, nil
}

func openFileHeap(path string) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadBytes(data, false)
}

// float64s is int32s for little-endian float64s (8-byte alignment).
func (c *byteCursor) float64s(n int, alias bool) ([]float64, bool, error) {
	b, err := c.take(8 * n)
	if err != nil || n == 0 {
		return nil, false, err
	}
	if alias && nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), true, nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, false, nil
}
