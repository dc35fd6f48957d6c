package transport

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/consensus"
)

// FuzzFrameRoundTrip drives arbitrary payloads through writeFrame/readFrame
// — the codec pair under the TCP transport's wire format, also watched
// statically by the codecsym analyzer. Invariants: any payload up to
// maxFrame survives a round trip byte-for-byte, an oversize payload is
// rejected on write (never silently truncated), and reading a stream with
// trailing garbage still yields the first frame intact.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x00})
	f.Add([]byte("twostep"))
	f.Add(bytes.Repeat([]byte{0xa5}, 1<<12))

	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		// As TCP.Send builds it: the payload behind a reserved header.
		frame := append(make([]byte, frameHeaderLen, frameHeaderLen+len(payload)), payload...)
		err := writeFrame(&buf, frame)
		if len(payload) > maxFrame {
			if !errors.Is(err, ErrOversize) {
				t.Fatalf("writeFrame(%d bytes) = %v, want ErrOversize", len(payload), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("writeFrame(%d bytes): %v", len(payload), err)
		}
		if got := buf.Len(); got != frameHeaderLen+len(payload) {
			t.Fatalf("frame is %d bytes, want header(%d)+payload(%d)", got, frameHeaderLen, len(payload))
		}

		// Trailing garbage must not bleed into the decoded frame.
		buf.Write([]byte{0xde, 0xad})
		var scratch []byte
		got, err := readFrame(&buf, &scratch)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed payload: wrote %d bytes, read %d", len(payload), len(got))
		}
	})
}

// writeCounter records how a frame reached the wire.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// A frame is one Write — header and payload in one syscall and, with
// TCP_NODELAY, one segment — and what Stats counts for it is what the
// receiver reads: the payload plus the length prefix.
func TestWriteFrameIsOneWrite(t *testing.T) {
	payload := appendFrame(nil, tcpFrame{From: 0, Msg: []byte("\x0bcore.decide")})
	var w writeCounter
	if err := writeFrame(&w, append(make([]byte, frameHeaderLen), payload...)); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 || w.Len() != frameHeaderLen+len(payload) {
		t.Fatalf("%d writes of %d bytes in all, want 1 write of %d", w.writes, w.Len(), frameHeaderLen+len(payload))
	}
	var scratch []byte
	got, err := readFrame(&w, &scratch)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back %q, %v", got, err)
	}
}

// The envelope round-trips, has one form, and refuses anything that does not
// start with the format version — the parent commit's JSON frame included.
func TestFrameEnvelopeRoundTrip(t *testing.T) {
	for _, f := range []tcpFrame{
		{From: 0, Msg: []byte("x")},
		{From: 4, Msg: bytes.Repeat([]byte{0xff}, 70<<10)},
		{From: consensus.NoProcess, Msg: nil},
	} {
		enc := appendFrame(nil, f)
		got, err := decodeFrame(enc)
		if err != nil || got.From != f.From || !bytes.Equal(got.Msg, f.Msg) {
			t.Fatalf("from %s: decoded %s, %d bytes, %v", f.From, got.From, len(got.Msg), err)
		}
		if again := appendFrame(nil, got); !bytes.Equal(again, enc) {
			t.Fatalf("from %s: re-encoding differs", f.From)
		}
	}
	for _, bad := range [][]byte{nil, []byte(`{"from":0,"msg":{}}`), {consensus.FormatVersion}, {consensus.FormatVersion, 0x80, 0x00}} {
		if _, err := decodeFrame(bad); err == nil {
			t.Errorf("envelope %q decoded", bad)
		}
	}
	if _, err := decodeFrame([]byte(`{"from":0,"msg":{}}`)); !errors.Is(err, consensus.ErrFormatVersion) {
		t.Errorf("JSON frame: %v, want ErrFormatVersion", err)
	}
}
