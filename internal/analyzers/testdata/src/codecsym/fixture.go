// Fixture for the codecsym analyzer: encode/decode pairs must agree on the
// fields they write and read — fixed-width encoding/binary calls and the
// length-prefixed helpers of internal/consensus/wire.go alike.
package fixture

import (
	"encoding/binary"

	"repro/internal/consensus"
)

// A matched pair: same widths, same counts, same byte order. The decoder
// reads the index from a body-relative offset (like wal.DecodeRecord), so
// only counts — not offsets — are compared.
func encodeGood(index uint64, payload []byte) []byte {
	buf := make([]byte, 16+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:16], index)
	binary.LittleEndian.PutUint32(buf[4:8], 0xdead)
	return buf
}

func decodeGood(b []byte) (uint64, []byte) {
	_ = binary.LittleEndian.Uint32(b[0:4])
	_ = binary.LittleEndian.Uint32(b[4:8])
	index := binary.LittleEndian.Uint64(b[8:16])
	return index, b[16:]
}

// Drifted pair: the encoder grew a uint64 field the decoder never learned
// about.
func encodeDrift(index uint64, epoch uint64) []byte {
	buf := make([]byte, 20)
	binary.LittleEndian.PutUint32(buf[0:4], 16)
	binary.LittleEndian.PutUint64(buf[4:12], index)
	binary.LittleEndian.PutUint64(buf[12:20], epoch)
	return buf
}

func decodeDrift(b []byte) uint64 { // want "encoder writes 2 uint64 field\\(s\\) but decoder reads 1"
	_ = binary.LittleEndian.Uint32(b[0:4])
	return binary.LittleEndian.Uint64(b[4:12])
}

// Byte-order drift: one side little-endian, the other big-endian.
func encodeOrder(v uint32) []byte {
	buf := make([]byte, 4)
	binary.LittleEndian.PutUint32(buf, v)
	return buf
}

func decodeOrder(b []byte) uint32 { // want "encoder uses binary.LittleEndian but decoder does not"
	return binary.BigEndian.Uint32(b)
}

// Swapped width: the same number of fields, one of them read at another size.
func encodeWidth(id uint32, n uint64) []byte {
	buf := make([]byte, 12)
	binary.BigEndian.PutUint32(buf[0:4], id)
	binary.BigEndian.PutUint64(buf[4:12], n)
	return buf
}

func decodeWidth(b []byte) (uint32, uint64) { // want "encoder writes 1 uint32 field\\(s\\) but decoder reads 2" "encoder writes 1 uint64 field\\(s\\) but decoder reads 0"
	return binary.BigEndian.Uint32(b[0:4]), uint64(binary.BigEndian.Uint32(b[4:8]))
}

// A round-trip helper touches both directions in one body and is no one's
// pairing partner.
func roundTripScratch(v uint64) uint64 {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, v)
	return binary.LittleEndian.Uint64(buf)
}

// An unpaired writer (a header stamp with no reader in this package) is not
// reported.
func writeStamp(buf []byte) {
	binary.LittleEndian.PutUint32(buf, 7)
}

// Suppression: a deliberately asymmetric pair (the decoder skips a reserved
// field) carries //lint:allow codecsym.
func encodeReserved(v uint32) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:4], v)
	binary.LittleEndian.PutUint32(buf[4:8], 0)
	return buf
}

//lint:allow codecsym reserved trailing field is intentionally unread
func decodeReserved(b []byte) uint32 {
	return binary.LittleEndian.Uint32(b[0:4])
}

// The length-prefixed vocabulary: Append<X> writes an X; Decode<X>, or the
// Decoder method reading an X, reads one. A matched pair, with a nested codec
// (appendInner/decodeInner) and a counted loop.
type rec struct {
	ID    string
	N     int64
	Flag  bool
	Inner []rec
}

func appendRec(dst []byte, r rec) []byte {
	dst = consensus.AppendStr(dst, r.ID)
	dst = consensus.AppendVarint(dst, r.N)
	dst = consensus.AppendBool(dst, r.Flag)
	dst = consensus.AppendUvarint(dst, uint64(len(r.Inner)))
	for _, in := range r.Inner {
		dst = appendRec(dst, in)
	}
	return dst
}

func decodeRec(d *consensus.Decoder) rec {
	r := rec{ID: d.Str(), N: d.Varint(), Flag: d.Bool()}
	for n := d.Count(3); n > 0; n-- {
		r.Inner = append(r.Inner, decodeRec(d))
	}
	return r
}

// Dropped field: the encoder grew a flag the decoder never reads.
func appendDropped(dst []byte, r rec) []byte {
	dst = consensus.AppendStr(dst, r.ID)
	return consensus.AppendBool(dst, r.Flag)
}

func decodeDropped(d *consensus.Decoder) rec { // want "encoder writes 1 Bool field\\(s\\) but decoder reads 0"
	return rec{ID: d.Str()}
}

// Swapped width, varint flavour: written zig-zag, read unsigned.
func appendSigned(dst []byte, r rec) []byte {
	return consensus.AppendVarint(dst, r.N)
}

func decodeSigned(d *consensus.Decoder) rec { // want "encoder writes 0 Uvarint field\\(s\\) but decoder reads 1" "encoder writes 1 Varint field\\(s\\) but decoder reads 0"
	return rec{N: int64(d.Uvarint())}
}

// Methods pair only with methods of their own receiver: two message types
// with AppendBody/DecodeBody each are two pairs, not an ambiguity — and a
// nested codec dropped on one side is a finding.
type wrapMsg struct{ Inner rec }
type flatMsg struct{ N int64 }

func (m *wrapMsg) AppendBody(dst []byte) []byte { return appendRec(dst, m.Inner) }
func (m *wrapMsg) DecodeBody(body []byte) error { // want "encoder writes 1 Rec field\\(s\\) but decoder reads 0"
	d := consensus.NewDecoder(body)
	return d.Finish()
}

func (m *flatMsg) AppendBody(dst []byte) []byte { return consensus.AppendVarint(dst, m.N) }
func (m *flatMsg) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.N = d.Varint()
	return d.Finish()
}
