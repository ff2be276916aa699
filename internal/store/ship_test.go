package store

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

// shipBytes prepares a stream and renders it to memory.
func shipBytes(t *testing.T, s *Store, from int64) []byte {
	t.Helper()
	sess, err := s.PrepareShip(from)
	if err != nil {
		t.Fatalf("PrepareShip(%d): %v", from, err)
	}
	var buf bytes.Buffer
	if _, err := sess.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// readShip consumes a shipped stream the way a follower does: verify the
// header, then load the index bytes, whose X3 checksum covers the body. A
// header-only stream returns a nil index.
func readShip(data []byte) (*tlx.Index, ShipHeader, error) {
	r := bytes.NewReader(data)
	hdr, err := ReadShipHeader(r)
	if err != nil || hdr.Bytes == 0 {
		return nil, hdr, err
	}
	body := make([]byte, hdr.Bytes)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, hdr, err
	}
	if r.Len() != 0 {
		return nil, hdr, errors.New("trailing bytes after the index")
	}
	ix, err := tlx.ReadIndexBytes(body, false)
	return ix, hdr, err
}

// TestShipFullStream: the stream is the primary's current index — records
// beyond the newest snapshot included — at its applied LSN. A receiver
// already at that LSN gets the header alone; any other position gets the
// whole index.
func TestShipFullStream(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	inserts := testInserts()
	for _, opt := range inserts[:4] {
		if _, err := s.Insert(opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// These records live only in the WAL beyond the snapshot.
	for _, opt := range inserts[4:] {
		if _, err := s.Insert(opt); err != nil {
			t.Fatal(err)
		}
	}
	applied := s.Status().AppliedLSN

	for _, from := range []int64{-1, 0, int64(applied) - 1, int64(applied) + 5} {
		got, hdr, err := readShip(shipBytes(t, s, from))
		if err != nil {
			t.Fatalf("from=%d: %v", from, err)
		}
		if hdr.LSN != applied || got == nil {
			t.Fatalf("from=%d: header %+v, want the whole index at LSN %d", from, hdr, applied)
		}
		assertSameAnswers(t, got, s.Index())
	}

	data := shipBytes(t, s, int64(applied))
	if got, hdr, err := readShip(data); err != nil || got != nil || hdr.LSN != applied || len(data) != shipHeaderSize {
		t.Fatalf("caught-up stream: %d bytes, header %+v, err %v; want the header alone", len(data), hdr, err)
	}
}

// TestShipUnderConcurrentInserts streams while a writer inserts and
// snapshots rotate. Every stream must load and serve, whatever the writer
// does meanwhile; the final stream must equal the final index.
func TestShipUnderConcurrentInserts(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	inserts := datagen.Generate(datagen.IND, 16, 2, 55)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, opt := range inserts {
			if _, err := s.Insert(opt); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 2 {
				if _, err := s.Snapshot(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 8; i++ {
		ix, _, err := readShip(shipBytes(t, s, -1))
		if err != nil {
			t.Fatalf("concurrent stream %d: %v", i, err)
		}
		// The shipped index must be servable, not just parseable.
		if _, err := ix.TopK([]float64{0.5, 0.5}, testTau); err != nil {
			t.Fatalf("concurrent stream %d shipped an unusable index: %v", i, err)
		}
	}
	wg.Wait()
	got, hdr, err := readShip(shipBytes(t, s, -1))
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Status().AppliedLSN; hdr.LSN != want {
		t.Errorf("final stream LSN %d, applied %d", hdr.LSN, want)
	}
	assertSameAnswers(t, got, s.Index())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShipStreamCorruptionDetected flips single bits across a valid
// stream and truncates it inside the header and the body: the receiver
// pipeline must reject each mutation with a content error — the
// follower's re-fetch trigger — and never accept silently.
func TestShipStreamCorruptionDetected(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	for _, opt := range testInserts()[:3] {
		if _, err := s.Insert(opt); err != nil {
			t.Fatal(err)
		}
	}
	data := shipBytes(t, s, -1)
	if _, _, err := readShip(data); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}

	isContent := func(err error) bool {
		return errors.Is(err, ErrCorrupt) || errors.Is(err, tlx.ErrBadFormat)
	}
	// Single-bit flips sampled across the header and the index body.
	for _, off := range []int{0, 9, 17, 25, shipHeaderSize + 5, shipHeaderSize + 200, len(data) - 10, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x10
		if _, _, err := readShip(mut); !isContent(err) {
			t.Errorf("bit flip at %d: err=%v, want a content error", off, err)
		}
	}
	// Truncations: mid-header, mid-body, one byte short.
	for _, n := range []int{0, shipHeaderSize - 1, shipHeaderSize + 100, len(data) - 1} {
		if _, _, err := readShip(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

// FuzzShipRead throws arbitrary bytes at the stream header decoder a
// follower trusts with network data. It must never panic, and a header it
// accepts must be the encoding of what it decoded. The index body is
// FuzzReadIndex's subject.
func FuzzShipRead(f *testing.F) {
	s, err := Open(Options{Dir: f.TempDir()}, builder(testData(20)))
	if err != nil {
		f.Fatal(err)
	}
	for _, opt := range testInserts()[:4] {
		if _, err := s.Insert(opt); err != nil {
			f.Fatal(err)
		}
	}
	sess, err := s.PrepareShip(-1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sess.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	s.Close()
	blob := buf.Bytes()
	f.Add(blob)
	f.Add(blob[:shipHeaderSize])
	f.Add(blob[:shipHeaderSize-3])
	flipped := append([]byte(nil), blob[:shipHeaderSize]...)
	flipped[17] ^= 0x04
	f.Add(flipped)
	f.Add([]byte(shipMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, err := ReadShipHeader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("header decode failed outside ErrCorrupt: %v", err)
			}
			return
		}
		if hdr.Bytes < 0 {
			t.Fatalf("accepted header claims %d index bytes", hdr.Bytes)
		}
		if !bytes.Equal(hdr.encode(), data[:shipHeaderSize]) {
			t.Fatalf("accepted header %+v does not re-encode to its bytes", hdr)
		}
	})
}
