// Package wal implements the segmented, append-only write-ahead log behind
// the durable SMR replica (internal/smr). The paper's recovery procedure
// (Lemmas 3 and 7) reasons about the state a process reports after a failure — its current ballot,
// its last vote, its decision. A crash-RECOVERY deployment of the protocol
// is sound only if that state survives the crash, which is exactly what
// this package provides: every record is framed with a CRC32C checksum,
// records are appended strictly before the messages that reflect them are
// sent, and the reader stops cleanly at the first short or corrupt record
// (a torn tail from a crash mid-write) instead of propagating garbage into
// the protocol.
//
// The package is listed among the protolint determinism packages: it owns
// no clock and spawns no goroutines. Time-based fsync policies (SyncInterval)
// are driven by the host, which calls Sync on its own timer.
package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Frame layout of one record, little-endian:
//
//	offset 0  u32  length of the body (index + payload) = 8 + len(payload)
//	offset 4  u32  CRC32C (Castagnoli) over the body
//	offset 8  u64  record index (monotonic across segments)
//	offset 16      payload
const (
	frameHeaderSize = 16 // length + crc + index
	frameBodyExtra  = 8  // index bytes counted in the length field
)

// MaxRecordBytes bounds a single record's payload. A corrupt length field
// would otherwise make the reader allocate and skip arbitrarily far.
const MaxRecordBytes = 16 << 20

// castagnoli is the CRC32C table shared by every frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record codec errors, matchable with errors.Is.
var (
	// ErrTorn marks a record cut short by a crash mid-write: the frame
	// claims more bytes than the file holds. Recovery truncates here.
	ErrTorn = errors.New("wal: torn record")
	// ErrCorrupt marks a record whose checksum or length field is invalid.
	ErrCorrupt = errors.New("wal: corrupt record")
)

// EncodeRecord frames one record. The returned buffer is written to the
// segment with a single Write call, so a crash leaves at most one torn
// record at the tail.
func EncodeRecord(index uint64, payload []byte) []byte {
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(frameBodyExtra+len(payload)))
	binary.LittleEndian.PutUint64(buf[8:16], index)
	copy(buf[frameHeaderSize:], payload)
	crc := crc32.Checksum(buf[8:], castagnoli)
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	return buf
}

// DecodeRecord parses the first record in b. It returns the record's index
// and payload and the number of bytes consumed. Errors distinguish a tail
// cut short (ErrTorn: b ends before the frame does) from data that is
// present but invalid (ErrCorrupt: impossible length or checksum mismatch);
// both stop a replay, but only the former is expected after a crash.
func DecodeRecord(b []byte) (index uint64, payload []byte, n int, err error) {
	if len(b) < frameHeaderSize {
		return 0, nil, 0, ErrTorn
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length < frameBodyExtra || length > MaxRecordBytes+frameBodyExtra {
		return 0, nil, 0, ErrCorrupt
	}
	total := 8 + int(length) // length + crc fields, then the body
	if len(b) < total {
		return 0, nil, 0, ErrTorn
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	body := b[8:total]
	if crc32.Checksum(body, castagnoli) != want {
		return 0, nil, 0, ErrCorrupt
	}
	index = binary.LittleEndian.Uint64(body[0:8])
	payload = body[8:]
	return index, payload, total, nil
}
