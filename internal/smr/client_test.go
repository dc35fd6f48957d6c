package smr_test

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/smr"
)

// scriptedServer accepts one connection at a time and answers each request
// line by calling reply; a nil return closes the connection without
// answering (the mid-request crash a client cannot distinguish from a
// slow commit).
func scriptedServer(t *testing.T, reply func(line string) *string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					r := reply(sc.Text())
					if r == nil {
						return
					}
					if _, err := conn.Write(append([]byte(*r), '\n')); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func str(s string) *string { return &s }

// wires are the two ways a SessionClient reaches a session server: at its
// first address, and — the only fallback it has from a v1-only server, which
// refuses the HELLO — at its next one. A refused handshake sent nothing, so
// every verdict must read as if that server were not in the list. serve
// starts a scripted server answering each command with reply (nil: close the
// connection without answering) and returns the client's address list.
var wires = []struct {
	name  string
	serve func(t *testing.T, reply func(cmd string) *string) []string
}{
	{"v2", func(t *testing.T, reply func(string) *string) []string {
		return []string{sessionScriptServer(t, func(_, cmd string) *string { return reply(cmd) })}
	}},
	{"v1 fallback", func(t *testing.T, reply func(string) *string) []string {
		v1 := scriptedServer(t, func(line string) *string {
			if !strings.HasPrefix(line, "HELLO") {
				t.Errorf("request %q sent to a server that refused the HELLO", line)
			}
			return str("ERR unknown command HELLO")
		})
		return []string{v1, sessionScriptServer(t, func(_, cmd string) *string { return reply(cmd) })}
	}},
}

// TestClientErrorTaxonomy pins the maybe-applied vs rejected distinction
// the linearizability checker depends on: every client failure must match
// exactly one of ErrMaybeApplied / ErrRejected, and the verdict must track
// whether the request could have reached consensus — on both wires.
func TestClientErrorTaxonomy(t *testing.T) {
	requireOutcome := func(t *testing.T, err error, maybe bool) {
		t.Helper()
		if err == nil {
			t.Fatal("expected an error")
		}
		if errors.Is(err, smr.ErrMaybeApplied) != maybe {
			t.Fatalf("errors.Is(err, ErrMaybeApplied) = %t, want %t (err: %v)", !maybe, maybe, err)
		}
		if errors.Is(err, smr.ErrRejected) != !maybe {
			t.Fatalf("errors.Is(err, ErrRejected) = %t, want %t (err: %v)", maybe, !maybe, err)
		}
	}
	serial := func(t *testing.T, addrs []string, timeout time.Duration) *smr.SessionClient {
		return newTestSessionClient(t, addrs, smr.SessionOptions{Timeout: timeout, Depth: 1})
	}

	t.Run("dial failure is rejected", func(t *testing.T) {
		// A port nothing listens on: the request never left this process.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		requireOutcome(t, serial(t, []string{addr}, time.Second).Put("k", "v"), false)
	})

	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			t.Run("connection cut after send is maybe-applied", func(t *testing.T) {
				addr := w.serve(t, func(string) *string { return nil })
				requireOutcome(t, serial(t, addr, time.Second).Put("k", "v"), true)
			})

			t.Run("reply timeout is maybe-applied", func(t *testing.T) {
				addr := w.serve(t, func(string) *string {
					time.Sleep(time.Second) // past the client deadline
					return str("OK")
				})
				requireOutcome(t, serial(t, addr, 50*time.Millisecond).Put("k", "v"), true)
			})

			t.Run("server-side error reply is maybe-applied", func(t *testing.T) {
				// e.g. the server's own context deadline fired mid-consensus:
				// the command may still decide.
				addr := w.serve(t, func(string) *string {
					return str("ERR smr execute: context deadline exceeded")
				})
				requireOutcome(t, serial(t, addr, time.Second).Put("k", "v"), true)
			})

			t.Run("usage error reply is rejected", func(t *testing.T) {
				addr := w.serve(t, func(string) *string {
					return str("ERR usage: PUT <key> <value>")
				})
				c := serial(t, addr, time.Second)
				requireOutcome(t, c.Put("k", "v"), false)
				requireOutcome(t, c.Delete("k"), false)
			})

			t.Run("unknown command reply is rejected", func(t *testing.T) {
				addr := w.serve(t, func(string) *string {
					return str("ERR unknown command PUT")
				})
				requireOutcome(t, serial(t, addr, time.Second).Put("k", "v"), false)
			})

			t.Run("NONE stays plain ErrNotFound", func(t *testing.T) {
				addr := w.serve(t, func(string) *string { return str("NONE") })
				_, err := serial(t, addr, time.Second).Get("k")
				if !errors.Is(err, smr.ErrNotFound) {
					t.Fatalf("Get miss = %v, want ErrNotFound", err)
				}
				if errors.Is(err, smr.ErrMaybeApplied) || errors.Is(err, smr.ErrRejected) {
					t.Fatalf("ErrNotFound must not carry an outcome verdict: %v", err)
				}
			})
		})
	}
}

// TestClientGetLinearizable exercises the GETL command end to end against
// a real served cluster: the linearizable read must observe a write that
// completed before it, through a different proxy than the writer's.
func TestClientGetLinearizable(t *testing.T) {
	addrs, _, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()

	writer := newTestSessionClient(t, addrs[:1], smr.SessionOptions{Timeout: 10 * time.Second, Depth: 1})
	reader := newTestSessionClient(t, addrs[1:2], smr.SessionOptions{Timeout: 10 * time.Second, Depth: 1})

	if err := writer.Put("color", "teal"); err != nil {
		t.Fatal(err)
	}
	// Plain Get through another proxy is allowed to lag; GETL is not.
	if got, err := reader.GetLinearizable("color"); err != nil || got != "teal" {
		t.Fatalf("GetLinearizable = %q, %v; want %q", got, err, "teal")
	}
	if err := writer.Delete("color"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.GetLinearizable("color"); !errors.Is(err, smr.ErrNotFound) {
		t.Fatalf("GetLinearizable after delete = %v, want ErrNotFound", err)
	}
}

// TestClientWriteErrorMessageMentionsAmbiguity keeps the human-readable
// form of a maybe-applied failure self-explanatory — failing seeds print
// these errors in chaos repro lines.
func TestClientWriteErrorMessageMentionsAmbiguity(t *testing.T) {
	addr := sessionScriptServer(t, func(_, _ string) *string { return nil })
	c := newTestSessionClient(t, []string{addr}, smr.SessionOptions{Timeout: time.Second, Depth: 1})
	err := c.Put("k", "v")
	if err == nil || !strings.Contains(err.Error(), "may have been applied") {
		t.Fatalf("error %q does not mention the unknown outcome", err)
	}
}
