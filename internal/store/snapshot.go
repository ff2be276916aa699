package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshot files are named snapshot-<LSN>.idx and hold one X3 index stream
// (self-checksummed — see internal/index). The zero-padded decimal LSN makes
// lexicographic order numeric order. A snapshot is only ever exposed under
// its final name after its bytes are fsync'd: writeSnapshot goes through a
// .tmp file, fsync, rename, directory fsync, so a crash leaves either the
// complete snapshot or an ignorable temp file, never a half-written one
// under the real name.

const (
	snapshotPrefix = "snapshot-"
	snapshotSuffix = ".idx"
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	tmpSuffix      = ".tmp"
)

func snapshotPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapshotPrefix, lsn, snapshotSuffix))
}

func segmentPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", segmentPrefix, base, segmentSuffix))
}

// fileEntry is one recognized data file.
type fileEntry struct {
	lsn  uint64
	path string
}

// scanDir inventories a data directory: snapshots and WAL segments sorted
// by ascending LSN. Leftover temp files from an interrupted snapshot are
// deleted; unrecognized files are ignored.
func scanDir(dir string) (snaps, segs []fileEntry, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, tmpSuffix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if lsn, ok := parseName(name, snapshotPrefix, snapshotSuffix); ok {
			snaps = append(snaps, fileEntry{lsn: lsn, path: filepath.Join(dir, name)})
		} else if lsn, ok := parseName(name, segmentPrefix, segmentSuffix); ok {
			segs = append(segs, fileEntry{lsn: lsn, path: filepath.Join(dir, name)})
		}
	}
	byLSN := func(s []fileEntry) func(i, j int) bool {
		return func(i, j int) bool { return s[i].lsn < s[j].lsn }
	}
	sort.Slice(snaps, byLSN(snaps))
	sort.Slice(segs, byLSN(segs))
	return snaps, segs, nil
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	num := name[len(prefix) : len(name)-len(suffix)]
	lsn, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// writeSnapshot atomically installs blob as the snapshot at lsn.
func writeSnapshot(dir string, lsn uint64, blob []byte) (string, error) {
	final := snapshotPath(dir, lsn)
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return final, nil
}

// syncDir fsyncs a directory so renames and creations in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
