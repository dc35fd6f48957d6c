package consensus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// The binary format shared by every serving-path encoding: TCP frames, WAL
// record payloads, snapshot blobs and everything nested in them are built
// from the Append helpers below and read back through a Decoder. Integers
// are varints (zig-zag when signed), strings and byte fields are a uvarint
// length followed by the bytes, a Value is its 8-byte big-endian key followed
// by its data as a string. Every form is canonical — a decoder accepts
// exactly the bytes the encoder produces — so encode(decode(b)) == b.

// FormatVersion is the first byte of every frame, WAL record payload and
// snapshot blob. It is the whole of format negotiation: anything else —
// the '{' of a JSON-era record included — is refused, not migrated.
const FormatVersion byte = 2

// Decode errors, matchable with errors.Is. They are values, not formatted,
// so refusing a hostile length prefix allocates nothing.
var (
	// ErrTruncated reports input that ends inside a field, or a length
	// prefix that claims more bytes than remain.
	ErrTruncated = errors.New("binary decode: truncated input")
	// ErrNotCanonical reports bytes the encoder would never have produced:
	// an over-long varint, a flag byte other than 0 or 1, trailing bytes.
	ErrNotCanonical = errors.New("binary decode: not the canonical encoding")
	// ErrFormatVersion reports a first byte other than FormatVersion.
	ErrFormatVersion = errors.New("not binary format version 2 (older and JSON-era data is refused, not migrated)")
)

// scratchPool recycles encode buffers: an encoder whose output size is not
// known up front builds in one and copies the result out at its exact size —
// one allocation, however many appends it took.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// Scratch returns an empty pooled buffer to append to; hand it back with
// Release once what was built in it has been copied out or written.
func Scratch() *[]byte { return scratchPool.Get().(*[]byte) }

// Release returns bp to the pool, keeping the capacity b grew to.
func Release(bp *[]byte, b []byte) {
	*bp = b[:0]
	scratchPool.Put(bp)
}

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends v as a zig-zag varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendStr appends s behind its length.
func AppendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendValue appends v: the key fixed-width (command keys are hashes, a
// varint would spend ten bytes on them), then the data.
func AppendValue(dst []byte, v Value) []byte {
	return AppendStr(binary.BigEndian.AppendUint64(dst, uint64(v.Key)), v.Data)
}

// AppendBallot appends b as a zig-zag varint.
func AppendBallot(dst []byte, b Ballot) []byte { return binary.AppendVarint(dst, int64(b)) }

// Decoder reads the fields of one encoded value in order. The first failure
// sticks: every later read returns a zero value, so a decoder reads all its
// fields and checks Finish once. Str copies out of the buffer, Bytes and
// Rest alias it — a caller that keeps those past the buffer's next reuse
// (transport.TCP's read loop reuses its own) must copy them.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder reads from b.
func NewDecoder(b []byte) Decoder { return Decoder{buf: b} }

// NewVersionedDecoder reads from b behind its format-version byte; what names
// the thing being decoded in the refusal.
func NewVersionedDecoder(b []byte, what string) (Decoder, error) {
	if len(b) == 0 || b[0] != FormatVersion {
		return Decoder{}, fmt.Errorf("%s: %w", what, ErrFormatVersion)
	}
	return Decoder{buf: b[1:]}, nil
}

// Fail records err as the decode's outcome unless one is already recorded:
// a caller's own validity checks share the sticky error.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err, d.buf = err, nil
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	switch {
	case n <= 0:
		d.Fail(ErrTruncated)
		return 0
	case n > 1 && d.buf[n-1] == 0:
		d.Fail(ErrNotCanonical)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zig-zag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Ballot reads a ballot.
func (d *Decoder) Ballot() Ballot { return Ballot(d.Varint()) }

// Count reads the length prefix of a sequence whose elements take at least
// min bytes each, refusing one the remaining input cannot hold — before the
// caller sizes anything by it.
func (d *Decoder) Count(min int) int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)/min) {
		d.Fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed field as a sub-slice of the input.
func (d *Decoder) Bytes() []byte {
	n := d.Count(1)
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Str reads a length-prefixed field as a string: the one copy a decoded
// message owns.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if b > 1 {
		d.Fail(ErrNotCanonical)
	}
	return b == 1
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.buf) == 0 {
		d.Fail(ErrTruncated)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// Value reads a Value.
func (d *Decoder) Value() Value {
	if len(d.buf) < 8 {
		d.Fail(ErrTruncated)
		return Value{}
	}
	key := int64(binary.BigEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return Value{Key: key, Data: d.Str()}
}

// Rest returns everything not yet read, as a sub-slice of the input: the
// body a wrapper (frame, group, slot) carries last and unprefixed.
func (d *Decoder) Rest() []byte {
	b := d.buf
	d.buf = nil
	return b
}

// Finish reports the decode's outcome; input left unread is an error.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) > 0 {
		return ErrNotCanonical
	}
	return d.err
}
