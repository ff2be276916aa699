package store

import (
	"bytes"
	"testing"
)

// FuzzWALReplay throws arbitrary bytes at the run reader — the exact code
// path recovery trusts with a crash-damaged or recycled log. It must never
// panic, and whatever it accepts must satisfy the run's own invariants: the
// records' LSNs go up by one, re-encoding them reproduces the bytes on disk,
// and the run never passes the end of the file.
func FuzzWALReplay(f *testing.F) {
	enc := func(recs ...record) []byte {
		var b []byte
		for _, rec := range recs {
			b = append(b, encodeRecord(rec)...)
		}
		return b
	}
	rec := func(lsn uint64) record {
		return record{lsn: lsn, id: int64(20 + lsn), attrs: []float64{0.25, float64(lsn) / 64}}
	}
	// Seed corpus: a two-record run; its torn truncation; a bit flip; a
	// recycled log, whose run of two records lies over a longer, older run;
	// a record torn over those stale bytes; an empty file; and junk.
	run := enc(rec(8), rec(9))
	f.Add(run)
	f.Add(run[:len(run)-3])
	flipped := bytes.Clone(run)
	flipped[recHeaderSize+9] ^= 0x20
	f.Add(flipped)
	recycled := enc(rec(3), rec(4), rec(5), rec(6))
	copy(recycled, enc(rec(20), rec(21)))
	f.Add(recycled)
	torn := enc(rec(3), rec(4), rec(5), rec(6))
	newer := enc(rec(20), rec(21))
	copy(torn, newer[:len(newer)-len(newer)/4])
	f.Add(torn)
	f.Add([]byte{})
	f.Add([]byte("TLVLWAL1 not a record"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, end := readRun(data)
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("run ends at %d, outside [0, %d]", end, len(data))
		}
		// Re-encoding the accepted records must reproduce the run byte for
		// byte: the reader may not invent or reinterpret data.
		var at int64
		for i, rec := range recs {
			if i > 0 && rec.lsn != recs[i-1].lsn+1 {
				t.Fatalf("record %d has LSN %d after %d", i, rec.lsn, recs[i-1].lsn)
			}
			b := encodeRecord(rec)
			if at+int64(len(b)) > end || !bytes.Equal(data[at:at+int64(len(b))], b) {
				t.Fatalf("record %d does not round-trip at offset %d", i, at)
			}
			at += int64(len(b))
		}
		if at != end {
			t.Fatalf("records end at %d but the run at %d", at, end)
		}
	})
}
