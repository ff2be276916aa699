package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"os"
	"slices"
	"time"
)

// The write-ahead log is two fixed files, wal-a.log and wal-b.log. Each is
// created once and afterwards only overwritten in place: appends go to the
// active log, and a snapshot makes the other one active, written again from
// offset 0 (see Store.Snapshot for when it may).
//
// Record layout (all integers little-endian; a log has no header):
//
//	record:  uint32 payload length   | uint32 CRC32(payload) | payload
//	payload: uint64 LSN | int64 acknowledged id | uint32 nattrs | nattrs × float64
//
// A record becomes durable — and the insert acknowledgeable — only after
// the log is fsync'd past it. A log's run is the records, read from offset
// 0, that pass their CRC and whose LSNs go up by one; the first record that
// fails either test ends it. What follows a run is a torn tail or an older
// generation of the file, whose LSNs are all lower, so a run never reaches
// into it.

var logNames = [2]string{"wal-a.log", "wal-b.log"}

const (
	recHeaderSize = 4 + 4
	// minPayload is the fixed part of a record payload (LSN, id, nattrs).
	minPayload = 8 + 8 + 4
)

// ErrCorrupt reports on-disk state the recovery procedure cannot use.
var ErrCorrupt = errors.New("store: corrupt data")

// record is one durable insert.
type record struct {
	lsn   uint64
	id    int64
	attrs []float64
}

func recordSize(rec record) int64 { return recHeaderSize + minPayload + 8*int64(len(rec.attrs)) }

func encodeRecord(rec record) []byte {
	buf := make([]byte, recordSize(rec))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(buf)-recHeaderSize))
	p := buf[recHeaderSize:]
	binary.LittleEndian.PutUint64(p[0:], rec.lsn)
	binary.LittleEndian.PutUint64(p[8:], uint64(rec.id))
	binary.LittleEndian.PutUint32(p[16:], uint32(len(rec.attrs)))
	for i, v := range rec.attrs {
		binary.LittleEndian.PutUint64(p[minPayload+8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(p))
	return buf
}

func decodePayload(p []byte) (record, error) {
	if len(p) < minPayload {
		return record{}, fmt.Errorf("%w: record payload %d bytes", ErrCorrupt, len(p))
	}
	rec := record{
		lsn: binary.LittleEndian.Uint64(p[0:]),
		id:  int64(binary.LittleEndian.Uint64(p[8:])),
	}
	nattrs := binary.LittleEndian.Uint32(p[16:])
	if int(nattrs)*8 != len(p)-minPayload {
		return record{}, fmt.Errorf("%w: record declares %d attrs in %d payload bytes", ErrCorrupt, nattrs, len(p))
	}
	if rec.id < 0 {
		return record{}, fmt.Errorf("%w: record id %d", ErrCorrupt, rec.id)
	}
	rec.attrs = make([]float64, nattrs)
	for i := range rec.attrs {
		rec.attrs[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[minPayload+8*i:]))
	}
	return rec, nil
}

// readRun returns the run of a log's bytes, read from offset 0, and the
// offset where it ends. Whatever stops the run — a short or oversized
// length, a CRC or payload mismatch, an LSN that does not follow — is left
// for the caller to clear; the run never passes the end of data.
func readRun(data []byte) (recs []record, end int64) {
	for {
		rest := data[end:]
		if len(rest) < recHeaderSize {
			return recs, end
		}
		n := binary.LittleEndian.Uint32(rest)
		if n < minPayload || int64(n) > int64(len(rest)-recHeaderSize) {
			return recs, end
		}
		p := rest[recHeaderSize : recHeaderSize+n]
		if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(rest[4:]) {
			return recs, end
		}
		rec, err := decodePayload(p)
		if err != nil || (len(recs) > 0 && rec.lsn != recs[len(recs)-1].lsn+1) {
			return recs, end
		}
		recs = append(recs, rec)
		end += recHeaderSize + int64(n)
	}
}

// walLog is one of the two log files, open for writing in place.
type walLog struct {
	f     *os.File
	size  int64  // the end of the run: where the next record goes
	last  uint64 // the LSN of the run's last record, 0 for an empty run
	stale int64  // the bytes past the run, 0 when they are all zeros
}

// openLog opens the log at path, creating it if missing, and reads its
// run.
func openLog(path string) (l *walLog, recs []record, created bool, err error) {
	f, created, err := openFile(path, os.O_RDWR)
	if err != nil {
		return nil, nil, false, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, false, err
	}
	recs, end := readRun(data)
	l = &walLog{f: f, size: end}
	if slices.ContainsFunc(data[end:], func(b byte) bool { return b != 0 }) {
		l.stale = int64(len(data)) - end
	}
	if len(recs) > 0 {
		l.last = recs[len(recs)-1].lsn
	}
	return l, recs, created, nil
}

// clearStale overwrites what follows the run — torn bytes, or after a
// recycle the older generation — with zeros, so that an unacknowledged
// record persisted past a torn one can never become part of the run.
// Zeros rather than a truncation: the file keeps its blocks, and freeing
// blocks costs as much as an unlink (14–35 ms a truncation on an ext4 mount
// with discard). The next append's fsync makes the zeros durable.
func (l *walLog) clearStale(log *slog.Logger) error {
	if l.stale == 0 {
		return nil
	}
	log.Info("store: zeroing a WAL log past the end of its run", "path", l.f.Name(),
		"runBytes", l.size, "zeroedBytes", l.stale)
	_, err := l.f.WriteAt(make([]byte, l.stale), l.size)
	l.stale = 0
	return err
}

// recycle empties the run: the next record overwrites the file from offset
// 0. It does no I/O.
func (l *walLog) recycle() { l.size, l.last = 0, 0 }

// writeRecord writes one record after the run WITHOUT making it durable:
// the caller must sync() before acknowledging anything written since the
// last sync. Splitting the write from the fsync is what lets the
// group-commit path lay down a whole group of records and pay the device
// one fsync for all of them.
func (l *walLog) writeRecord(rec record) (int, error) {
	buf := encodeRecord(rec)
	writeStart := time.Now()
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		return 0, err
	}
	walAppendSeconds.Observe(time.Since(writeStart).Seconds())
	walAppendsTotal.Inc()
	walAppendBytesTotal.Add(uint64(len(buf)))
	l.size += int64(len(buf))
	l.last = rec.lsn
	return len(buf), nil
}

// sync makes every record written so far durable. Records become
// acknowledgeable only after their sync returns nil.
func (l *walLog) sync() error {
	syncStart := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	walFsyncSeconds.Observe(time.Since(syncStart).Seconds())
	walFsyncsTotal.Inc()
	return nil
}
