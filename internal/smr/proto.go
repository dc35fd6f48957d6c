package smr

// Shared pieces of the client/server wire protocol: bounded line reading,
// session frame encoding, and the key/value character rules both ends
// enforce. The protocol itself is documented in docs/SESSIONS.md.
//
// Two generations share one port:
//
//	v1 (legacy): one bare command line per request, replies in order.
//	v2 (sessions): the first line is "HELLO 2"; the server answers
//	    "OHAI 2 <replica> <leader>" and every subsequent line in either
//	    direction is a frame "<tag> <payload>" — tagged requests, many in
//	    flight, replies in any order.
//
// A v1 client never sends HELLO, so a v2 server serves it unchanged; a v2
// client whose HELLO is refused has sent nothing and tries its next address.

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

const (
	// ProtocolVersion is the session protocol generation spoken after a
	// successful HELLO/OHAI negotiation.
	ProtocolVersion = 2

	// MaxLineBytes bounds one protocol line (request or reply), terminator
	// excluded. Lines over the limit are answered with "ERR line too long"
	// instead of silently killing the connection — the pre-session server
	// used bufio.Scanner's default 64 KB token limit and dropped the
	// connection without a reply, which clients misread as a maybe-applied
	// write for a command that never executed.
	MaxLineBytes = 1 << 20
)

// errLineTooLong reports a line over MaxLineBytes. readLine consumes the
// oversize line entirely, so the connection stays usable for a reply.
var errLineTooLong = errors.New("line too long")

// readLine reads one '\n'-terminated line of at most max bytes, stripping
// the terminator and one optional trailing '\r'. On an oversize line it
// returns the first max bytes alongside errLineTooLong after discarding
// the remainder, so a session server can still recover the frame tag to
// address its error reply. A partial line at EOF is an error: in this
// protocol it can only mean the peer died mid-request.
func readLine(br *bufio.Reader, max int) (string, error) {
	var buf []byte
	overflow := false
	for {
		frag, err := br.ReadSlice('\n')
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			return "", err
		}
		terminated := err == nil
		if terminated {
			frag = frag[:len(frag)-1] // drop the '\n'
		}
		if !overflow {
			if room := max - len(buf); len(frag) > room {
				frag = frag[:room]
				overflow = true
			}
			buf = append(buf, frag...)
		}
		if terminated {
			break
		}
	}
	if overflow {
		return string(buf), errLineTooLong
	}
	if len(buf) > 0 && buf[len(buf)-1] == '\r' {
		buf = buf[:len(buf)-1]
	}
	return string(buf), nil
}

// appendFrame encodes one session frame, "<tag> <payload>\n", into dst.
func appendFrame(dst []byte, tag uint64, payload string) []byte {
	dst = strconv.AppendUint(dst, tag, 10)
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// parseFrame splits a session frame line (terminator already stripped)
// into its tag and payload.
func parseFrame(line string) (tag uint64, payload string, err error) {
	head, rest, ok := strings.Cut(line, " ")
	if !ok {
		return 0, "", fmt.Errorf("frame %q: missing tag separator", clip(line))
	}
	tag, err = strconv.ParseUint(head, 10, 64)
	if err != nil {
		return 0, "", fmt.Errorf("frame %q: bad tag: %v", clip(line), err)
	}
	return tag, rest, nil
}

// clip shortens a wire line for an error message.
func clip(s string) string {
	if len(s) > 48 {
		return s[:48] + "…"
	}
	return s
}

// checkKey rejects keys the line protocol cannot carry faithfully: keys
// are space-delimited tokens, so spaces and control characters (including
// '\n'/'\r', which would let a key smuggle a second command into the
// stream, and '\t', which the old strings.Fields parser silently split
// on) are refused before anything is sent.
func checkKey(key string) error {
	if key == "" {
		return errors.New("empty key")
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; c == ' ' || c < 0x20 || c == 0x7f {
			return fmt.Errorf("key %q: contains space or control character", clip(key))
		}
	}
	return nil
}

// checkValue rejects values the line protocol cannot carry faithfully:
// values run to the end of the line, so any '\n' or '\r' (or other
// control character except '\t') would terminate the request early and
// inject whatever follows as a new command — Put("k", "v\nDEL k") must
// fail client-side, not execute twice. Spaces and tabs are fine: the
// server preserves the value byte-for-byte after the second space.
func checkValue(val string) error {
	for i := 0; i < len(val); i++ {
		if c := val[i]; (c < 0x20 && c != '\t') || c == 0x7f {
			return fmt.Errorf("value %q: contains control character", clip(val))
		}
	}
	return nil
}
