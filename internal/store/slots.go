package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	tlx "tlevelindex"
)

// A data directory keeps its durable copy of the index in two fixed files,
// slot-a.idx and slot-b.idx, each one ship stream at rest (see ship.go): the
// TLXSHIP2 header with the LSN and byte count under its own CRC, then the
// self-checksummed X3 bytes. A write overwrites the spare slot — the one not
// holding the newest index — in place and fsyncs it; nothing is renamed or
// unlinked. A crash mid-write tears only the spare, whose checksums then
// fail, so a load takes the newest slot that verifies and falls back to the
// other. A primary's store and a follower keep the same two files, so a
// follower's directory opens as a primary's.
//
// A slot's first write creates its file without fsyncing the directory. In
// a store the next WAL segment's creation does that, and it comes before any
// prune that relies on the new slot; a follower that loses the entry in a
// crash fetches the index again.

var slotNames = [2]string{"slot-a.idx", "slot-b.idx"}

// Slots is the pair of slot files in one directory. Its methods are not
// safe for concurrent use.
type Slots struct {
	dir   string
	spare int // the slot the next Write overwrites
}

// NewSlots returns the slots of dir; nothing is read until Load.
func NewSlots(dir string) *Slots { return &Slots{dir: dir} }

func (p *Slots) path(i int) string { return filepath.Join(p.dir, slotNames[i]) }

// Newest is the path of the slot holding the index Load found or Write
// wrote last.
func (p *Slots) Newest() string { return p.path(1 - p.spare) }

// Load reads the newest slot that verifies onto the heap — a slot is
// overwritten in place, so it is never mapped — and returns its index and
// LSN; the other slot becomes the spare. A slot that exists but does not
// verify is logged and counted in skipped. ix is nil when neither verifies.
func (p *Slots) Load(log *slog.Logger) (ix *tlx.Index, lsn uint64, skipped int) {
	var hdrs [2]ShipHeader
	var errs [2]error
	for i := range hdrs {
		hdrs[i], errs[i] = p.header(i)
	}
	order := [2]int{0, 1}
	if errs[0] != nil || (errs[1] == nil && hdrs[1].LSN > hdrs[0].LSN) {
		order = [2]int{1, 0}
	}
	for _, i := range order {
		err := errs[i]
		if err == nil {
			if ix, err = p.load(i, hdrs[i]); err == nil {
				p.spare = 1 - i
				return ix, hdrs[i].LSN, skipped
			}
		}
		if !errors.Is(err, fs.ErrNotExist) {
			log.Warn("store: slot unusable; falling back", "path", p.path(i), "err", err)
			skipped++
		}
	}
	p.spare = 0
	return nil, 0, skipped
}

// header reads and verifies slot i's header.
func (p *Slots) header(i int) (ShipHeader, error) {
	f, err := os.Open(p.path(i))
	if err != nil {
		return ShipHeader{}, err
	}
	defer f.Close()
	return ReadShipHeader(f)
}

// load reads the index that header h of slot i describes.
func (p *Slots) load(i int, h ShipHeader) (*tlx.Index, error) {
	f, err := os.Open(p.path(i))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < shipHeaderSize+h.Bytes {
		return nil, fmt.Errorf("%w: slot holds %d of %d index bytes", ErrCorrupt, st.Size()-shipHeaderSize, h.Bytes)
	}
	body := make([]byte, h.Bytes)
	if _, err := f.ReadAt(body, shipHeaderSize); err != nil {
		return nil, err
	}
	return tlx.ReadIndexBytes(body, false)
}

// Write overwrites the spare slot in place with hdr and then hdr.Bytes
// bytes of body, written as they are read, fsyncs it and reports how long
// the fsync took. The slot then holds the newest index and the other one
// becomes the spare, unless accept, given the body bytes, returns an error:
// Write returns it and the slot stays the spare. accept may be nil.
func (p *Slots) Write(hdr ShipHeader, body io.Reader, accept func([]byte) error) (time.Duration, error) {
	f, err := os.OpenFile(p.path(p.spare), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	var kept bytes.Buffer
	if accept != nil {
		kept.Grow(int(min(hdr.Bytes, 1<<26)))
		body = io.TeeReader(body, &kept)
	}
	_, err = f.Write(hdr.encode())
	var n int64
	if err == nil {
		n, err = io.Copy(f, io.LimitReader(body, hdr.Bytes))
	}
	if err == nil && n != hdr.Bytes {
		err = fmt.Errorf("%w: index stream truncated at %d of %d bytes", ErrCorrupt, n, hdr.Bytes)
	}
	if err == nil {
		// A shorter index than the slot held leaves no stale tail behind.
		err = f.Truncate(shipHeaderSize + n)
	}
	var fsync time.Duration
	if err == nil {
		start := time.Now()
		err = f.Sync()
		fsync = time.Since(start)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && accept != nil {
		err = accept(kept.Bytes())
	}
	if err == nil {
		p.spare = 1 - p.spare
	}
	return fsync, err
}

const (
	segmentPrefix = "wal-"
	segmentSuffix = ".log"
)

// segmentPath names the segment with the given base LSN; the zero-padded
// decimal makes lexicographic order numeric order.
func segmentPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", segmentPrefix, base, segmentSuffix))
}

// fileEntry is one WAL segment.
type fileEntry struct {
	lsn  uint64
	path string
}

// scanSegments lists the WAL segments of dir by ascending base LSN: ReadDir
// sorts by name, and the names are zero-padded.
func scanSegments(dir string) ([]fileEntry, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []fileEntry
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		lsn, err := strconv.ParseUint(name[len(segmentPrefix):len(name)-len(segmentSuffix)], 10, 64)
		if err == nil {
			segs = append(segs, fileEntry{lsn: lsn, path: filepath.Join(dir, name)})
		}
	}
	return segs, nil
}

// syncDir fsyncs a directory so creations in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
