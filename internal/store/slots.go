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
	"time"

	tlx "tlevelindex"
)

// A data directory keeps its durable copy of the index in two fixed files,
// slot-a.idx and slot-b.idx, each one ship stream at rest (see ship.go): the
// TLXSHIP2 header with the LSN and byte count under its own CRC, then the
// self-checksummed X3 bytes. A write overwrites the spare slot — the one not
// holding the newest index — in place and fsyncs it; nothing is renamed or
// unlinked, and nothing is cut: a file keeps the length of the longest
// index it held, and what lies past its header's byte count is never read
// (freeing blocks can take tens of milliseconds on a disk mounted with
// discard). A crash mid-write tears only the spare, whose checksums then
// fail, so a load takes the newest slot that verifies and falls back to the
// other. A primary's store and a follower keep the same two files, so a
// follower's directory opens as a primary's.
//
// A store's Open creates both files, empty, beside its two WAL logs and
// fsyncs the directory once. A follower's first write of a slot creates its
// file, and Write fsyncs the directory right after. Later writes only
// overwrite a slot; an empty one holds nothing, as a missing one.

var slotNames = [2]string{"slot-a.idx", "slot-b.idx"}

// Slots is the pair of slot files in one directory. Its methods are not
// safe for concurrent use.
type Slots struct {
	dir   string
	spare int   // the slot the next Write overwrites
	bytes int64 // header and index bytes of the newest slot
}

// NewSlots returns the slots of dir; nothing is read until Load.
func NewSlots(dir string) *Slots { return &Slots{dir: dir} }

func (p *Slots) path(i int) string { return filepath.Join(p.dir, slotNames[i]) }

// Newest is the path of the slot holding the index Load found or Write
// wrote last.
func (p *Slots) Newest() string { return p.path(1 - p.spare) }

// NewestBytes is the size of the newest slot's header and index, the bytes
// its header counts: a slot file may run longer, past an index it held
// before.
func (p *Slots) NewestBytes() int64 { return p.bytes }

// Load reads the newest slot that verifies onto the heap — a slot is
// overwritten in place, so it is never mapped — and returns its index and
// LSN; the other slot becomes the spare. A slot that holds bytes but does
// not verify is logged and counted in skipped. ix is nil when neither verifies.
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
				p.spare, p.bytes = 1-i, shipHeaderSize+hdrs[i].Bytes
				return ix, hdrs[i].LSN, skipped
			}
		}
		// A slot that does not exist, or is still empty, holds nothing.
		if !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, io.EOF) {
			log.Warn("store: slot unusable; falling back", "path", p.path(i), "err", err)
			skipped++
		}
	}
	p.spare, p.bytes = 0, 0
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
// the fsync took; a file longer than that keeps its tail. When it creates
// the slot's file it fsyncs the directory too. The slot then holds the
// newest index and the other one becomes the spare, unless accept, given
// the body bytes, returns an error: Write returns it and the slot stays the
// spare. accept may be nil.
func (p *Slots) Write(hdr ShipHeader, body io.Reader, accept func([]byte) error) (time.Duration, error) {
	f, created, err := openFile(p.path(p.spare), os.O_WRONLY)
	if err == nil && created {
		if err = syncDir(p.dir); err != nil {
			f.Close()
		}
	}
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
		p.spare, p.bytes = 1-p.spare, shipHeaderSize+n
	}
	return fsync, err
}

// openFile opens path with flag, creating the file if it is missing;
// created reports whether it did.
func openFile(path string, flag int) (f *os.File, created bool, err error) {
	f, err = os.OpenFile(path, flag, 0)
	if !errors.Is(err, fs.ErrNotExist) {
		return f, false, err
	}
	f, err = os.OpenFile(path, flag|os.O_CREATE|os.O_EXCL, 0o644)
	return f, err == nil, err
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
