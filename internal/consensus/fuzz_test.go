package consensus_test

import (
	"bytes"
	"testing"
)

// FuzzCodecDecode asserts the wire decoder never panics and never returns
// both a message and an error, whatever bytes arrive from the network — and
// that whatever it accepts is the one encoding of what it decoded.
func FuzzCodecDecode(f *testing.F) {
	codec := fullCodec(f)
	for _, msg := range allMessages() {
		if data, _ := codec.Encode(msg); len(data) < 4<<10 {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"kind":"core.2b","body":{"ballot":0,"value":{"key":1}}}`))
	f.Add([]byte("\x04nope"))
	f.Add([]byte{})
	f.Add([]byte("\x07core.2b\x00\x00\x00\x00\x00\x00\x00\x00\x01\xff\xff\xff\xff\x0f")) // a 4 GiB value in 5 bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := codec.Decode(data)
		if (err == nil) == (msg == nil) {
			t.Fatalf("message %v with error %v", msg, err)
		}
		if err == nil {
			again, err := codec.Encode(msg)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("decoded %x, re-encoded %x (%v)", data, again, err)
			}
		}
	})
}
