package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Snapshot shipping: the wire form a primary streams to a follower. One
// stream carries the primary's current index, serialized at the LSN it
// covers, or nothing when the follower already holds that LSN. A follower
// installs the bytes as they are and never re-runs the primary's build.
//
// Stream layout (all integers little-endian):
//
//	header:  8-byte magic "TLXSHIP2" | uint64 LSN | int64 index bytes
//	         | uint32 CRC32(preceding 24 bytes)
//	body:    <index bytes> of index serialization (self-checksummed X3)
//
// An index-bytes field of 0 means the follower's index is current at the
// LSN. The X3 checksum covers the body, so the receiver verifies every
// byte when it opens the index.

const shipMagic = "TLXSHIP2"

// shipHeaderSize is magic + LSN + index bytes + CRC.
const shipHeaderSize = 8 + 8 + 8 + 4

// ShipHeader describes one shipped stream.
type ShipHeader struct {
	LSN   uint64 // the primary's applied LSN, which the index bytes cover
	Bytes int64  // 0 = the receiver already holds LSN; nothing follows
}

func (h ShipHeader) encode() []byte {
	buf := make([]byte, shipHeaderSize)
	copy(buf, shipMagic)
	binary.LittleEndian.PutUint64(buf[8:], h.LSN)
	binary.LittleEndian.PutUint64(buf[16:], uint64(h.Bytes))
	binary.LittleEndian.PutUint32(buf[24:], crc32.ChecksumIEEE(buf[:24]))
	return buf
}

// ReadShipHeader reads and verifies a stream header.
func ReadShipHeader(r io.Reader) (ShipHeader, error) {
	var buf [shipHeaderSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return ShipHeader{}, fmt.Errorf("%w: ship header: %w", ErrCorrupt, err)
	}
	if string(buf[:8]) != shipMagic {
		return ShipHeader{}, fmt.Errorf("%w: bad ship magic", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(buf[24:]) != crc32.ChecksumIEEE(buf[:24]) {
		return ShipHeader{}, fmt.Errorf("%w: ship header checksum", ErrCorrupt)
	}
	h := ShipHeader{
		LSN:   binary.LittleEndian.Uint64(buf[8:]),
		Bytes: int64(binary.LittleEndian.Uint64(buf[16:])),
	}
	if h.Bytes < 0 {
		return ShipHeader{}, fmt.Errorf("%w: ship header claims %d index bytes", ErrCorrupt, h.Bytes)
	}
	return h, nil
}

// ShipSession is one prepared stream: the index serialized from one
// Serving pair, at exactly the LSN its header names, so streaming happens
// outside every store lock.
type ShipSession struct {
	Header ShipHeader
	body   []byte
}

// PrepareShip serializes the current index for a follower that holds the
// index at LSN from (from < 0: no index). A follower already at the applied
// LSN gets a header-only session; any other from gets the whole index.
func (s *Store) PrepareShip(from int64) (*ShipSession, error) {
	ix, lsn, done := s.Serving()
	defer done()
	if s.closed {
		return nil, errors.New("store: closed")
	}
	sess := &ShipSession{Header: ShipHeader{LSN: lsn}}
	if from >= 0 && uint64(from) == lsn {
		return sess, nil
	}
	body, err := ix.AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	sess.body = body
	sess.Header.Bytes = int64(len(body))
	return sess, nil
}

// WriteTo streams the session: header, then the index bytes.
func (sess *ShipSession) WriteTo(w io.Writer) (int64, error) {
	m, err := w.Write(sess.Header.encode())
	n := int64(m)
	if err != nil {
		return n, err
	}
	m, err = w.Write(sess.body)
	return n + int64(m), err
}
