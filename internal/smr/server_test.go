package smr_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/smr"
)

// startServedCluster boots a mesh cluster with a client-facing server per
// process and returns the server addresses.
func startServedCluster(t *testing.T, n, f, e int) ([]string, []*smr.Server, func()) {
	t.Helper()
	return serveCluster(t, newTestCluster(t, n, f, e, procOptions{}))
}

// serveCluster fronts every process of c with a server, as cmd/kv does.
func serveCluster(t *testing.T, c *testCluster) ([]string, []*smr.Server, func()) {
	t.Helper()
	servers := make([]*smr.Server, c.n)
	addrs := make([]string, c.n)
	for i, rt := range c.rts {
		srv, err := smr.NewBackendServer(rt, "127.0.0.1:0", 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
		c.close()
	}
	return addrs, servers, cleanup
}

func TestClientServerPutGetDelete(t *testing.T) {
	addrs, _, cleanup := startServedCluster(t, 5, 2, 2)
	defer cleanup()

	client := newTestSessionClient(t, addrs, smr.SessionOptions{Timeout: 10 * time.Second, Depth: 1})

	if err := client.Put("color", "teal"); err != nil {
		t.Fatal(err)
	}
	if got, err := client.Get("color"); err != nil || got != "teal" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := client.Put("color", "dark teal"); err != nil {
		t.Fatal(err)
	}
	if got, _ := client.Get("color"); got != "dark teal" {
		t.Fatalf("Get after overwrite = %q", got)
	}
	if err := client.Delete("color"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get("color"); !errors.Is(err, smr.ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
}

func TestClientFailsOverWhenProxyDies(t *testing.T) {
	addrs, servers, cleanup := startServedCluster(t, 5, 2, 2)
	defer cleanup()

	client := newTestSessionClient(t, addrs, smr.SessionOptions{Timeout: 5 * time.Second, Depth: 1})

	if err := client.Put("a", "1"); err != nil {
		t.Fatal(err)
	}
	first := client.Proxy()

	// Kill the proxy the client is attached to; its replica keeps
	// running (only the client listener dies), so consensus stays live
	// and the client must fail over to another proxy.
	for _, s := range servers {
		if s.Addr() == first {
			s.Close()
		}
	}
	// The session may learn of the death only when the write's frame hits
	// the dead socket: that one write is then maybe-applied (a sent write is
	// never blindly re-proposed), and the client has rotated for the next.
	if err := client.Put("b", "2"); err != nil {
		if !errors.Is(err, smr.ErrMaybeApplied) {
			t.Fatalf("put after proxy death: %v", err)
		}
		if err := client.Put("b", "2"); err != nil {
			t.Fatalf("put after rotation: %v", err)
		}
	}
	if client.Proxy() == first {
		t.Fatal("client did not rotate away from the dead proxy")
	}
	// Both writes visible through the new proxy (it applied both slots
	// before acknowledging b).
	if got, err := client.Get("b"); err != nil || got != "2" {
		t.Fatalf("Get(b) = %q, %v", got, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, err := client.Get("a"); err == nil && got == "1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write a never visible via new proxy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerProtocolErrors(t *testing.T) {
	addrs, _, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()
	client := newTestSessionClient(t, addrs[:1], smr.SessionOptions{Timeout: 5 * time.Second, Depth: 1})

	// Unknown key.
	if _, err := client.Get("missing"); !errors.Is(err, smr.ErrNotFound) {
		t.Fatalf("Get(missing) = %v", err)
	}
}

func TestServerStatsCommand(t *testing.T) {
	addrs, _, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()
	client := newTestSessionClient(t, addrs[:1], smr.SessionOptions{Timeout: 5 * time.Second, Depth: 1})

	// A replicated write guarantees the replica's transport has traffic.
	if err := client.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	line, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "sends=") || !strings.Contains(line, "drops=") {
		t.Fatalf("STATS line = %q, want transport counters", line)
	}
	if strings.Contains(line, " sends=0 ") {
		t.Fatalf("STATS line = %q, want nonzero sends after a replicated write", line)
	}
}

// dialRaw opens a raw protocol connection for wire-level tests.
func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, bufio.NewReader(conn)
}

func readReply(t *testing.T, rd *bufio.Reader) string {
	t.Helper()
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	return strings.TrimRight(line, "\r\n")
}

// rawLine sends one bare v1 line and returns the reply line.
func rawLine(t *testing.T, conn net.Conn, rd *bufio.Reader, line string) string {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		t.Fatal(err)
	}
	return readReply(t, rd)
}

// TestServerV1LineProtocol keeps the v1 wire covered now that no shipped
// client speaks it first: a connection that never says HELLO is served one
// bare line at a time, replies in order, values whitespace-exact.
func TestServerV1LineProtocol(t *testing.T) {
	addrs, servers, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()
	conn, rd := dialRaw(t, addrs[0])

	for _, step := range []struct{ send, want string }{
		{"PING", "PONG"},
		{"PUT color dark  teal ", "OK"}, // inner run and trailing space survive
		{"GET color", "VAL dark  teal "},
		{"GETL color", "VAL dark  teal "},
		{"PUT empty ", "OK"},
		{"GET empty", "VAL "},
		{"DEL color", "OK"},
		{"GET color", "NONE"},
		{"PUT onlykey", "ERR usage: PUT <key> <value>"},
		{"FROB x", "ERR unknown command FROB"},
	} {
		if got := rawLine(t, conn, rd, step.send); got != step.want {
			t.Fatalf("%q -> %q, want %q", step.send, got, step.want)
		}
	}
	if got := rawLine(t, conn, rd, "STATS"); !strings.HasPrefix(got, "STATS groups=1 sends=") {
		t.Fatalf("STATS -> %q", got)
	}
	if got := rawLine(t, conn, rd, "INFO"); !strings.HasPrefix(got, "INFO ") || !strings.Contains(got, "applied=") {
		t.Fatalf("INFO -> %q", got)
	}
	if n := servers[0].Counters().LegacyConns; n != 1 {
		t.Fatalf("LegacyConns = %d, want 1", n)
	}
}

// TestServerOversizeLineGetsErrNotDroppedConn pins the bufio.Scanner
// bug: the old server's 64 KB token limit silently killed the connection
// on a long PUT, which the client misreported as maybe-applied for a
// command that never executed. Now an oversize line must get an explicit
// "ERR line too long" reply on a connection that keeps working.
func TestServerOversizeLineGetsErrNotDroppedConn(t *testing.T) {
	addrs, servers, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()
	conn, rd := dialRaw(t, addrs[0])

	oversize := "PUT big " + strings.Repeat("x", smr.MaxLineBytes+100)
	if _, err := fmt.Fprintf(conn, "%s\n", oversize); err != nil {
		t.Fatal(err)
	}
	if got := readReply(t, rd); got != "ERR line too long" {
		t.Fatalf("oversize line reply = %q, want ERR line too long", got)
	}
	// The same connection still serves commands.
	fmt.Fprintln(conn, "PUT k v")
	if got := readReply(t, rd); got != "OK" {
		t.Fatalf("PUT after oversize line = %q, want OK", got)
	}
	fmt.Fprintln(conn, "GET big")
	if got := readReply(t, rd); got != "NONE" {
		t.Fatalf("the oversize PUT must not have executed; GET big = %q", got)
	}
	var tooLong uint64
	for _, s := range servers {
		tooLong += s.Counters().TooLong
	}
	if tooLong == 0 {
		t.Fatal("oversize line not counted")
	}
}

// TestServerLargeValueNowWorks: a 256 KiB value is well inside MaxLineBytes
// and the transport's frame limit and must simply work — at the fixtures'
// 1 ms tick: one hop of it through the codecs is far shorter than Δ (when a
// hop outlasts Δ the protocol never decides, which is what the JSON
// envelopes did to a 100 KiB value here).
func TestServerLargeValueNowWorks(t *testing.T) {
	addrs, _, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()
	client := newTestSessionClient(t, addrs[:1], smr.SessionOptions{Timeout: 20 * time.Second, Depth: 1})

	big := strings.Repeat("payload-", 256*1024/8) // 256 KiB
	if err := client.Put("big", big); err != nil {
		t.Fatalf("Put(256KiB): %v", err)
	}
	if got, err := client.Get("big"); err != nil || got != big {
		t.Fatalf("Get(big) = %d bytes, %v; want %d bytes back", len(got), err, len(big))
	}
}

// TestServerHelloBadVersion: an unknown HELLO variant must refuse the
// upgrade the way a v1 server would, and keep serving the legacy
// protocol on the same connection.
func TestServerHelloBadVersion(t *testing.T) {
	addrs, _, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()
	conn, rd := dialRaw(t, addrs[0])

	fmt.Fprintln(conn, "HELLO 99 extra")
	if got := readReply(t, rd); got != "ERR unknown command HELLO" {
		t.Fatalf("bad HELLO reply = %q", got)
	}
	fmt.Fprintln(conn, "PING")
	if got := readReply(t, rd); got != "PONG" {
		t.Fatalf("PING after refused HELLO = %q", got)
	}
}

// TestServerSessionWire drives the v2 frame protocol over a raw socket:
// OHAI negotiation, tagged replies, busy-queue and oversize behavior.
func TestServerSessionWire(t *testing.T) {
	addrs, _, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()
	conn, rd := dialRaw(t, addrs[0])

	fmt.Fprintln(conn, "HELLO 2")
	ohai := readReply(t, rd)
	var ver, id, leader int
	if _, err := fmt.Sscanf(ohai, "OHAI %d %d %d", &ver, &id, &leader); err != nil || ver != 2 {
		t.Fatalf("OHAI = %q (%v)", ohai, err)
	}
	fmt.Fprintln(conn, "7 PUT k v")
	if got := readReply(t, rd); got != "7 OK" {
		t.Fatalf("tagged PUT reply = %q", got)
	}
	fmt.Fprintln(conn, "8 GET k")
	if got := readReply(t, rd); got != "8 VAL v" {
		t.Fatalf("tagged GET reply = %q", got)
	}
	// Oversize frame: the tag survives the truncation, so the error is
	// addressed to it and the session continues.
	fmt.Fprintf(conn, "9 PUT big %s\n", strings.Repeat("x", smr.MaxLineBytes))
	if got := readReply(t, rd); got != "9 ERR line too long" {
		t.Fatalf("oversize frame reply = %q", got)
	}
	fmt.Fprintln(conn, "10 PING")
	if got := readReply(t, rd); got != "10 PONG" {
		t.Fatalf("PING after oversize frame = %q", got)
	}
}

func TestClientNoProxies(t *testing.T) {
	if _, err := smr.NewSessionClient(nil, smr.SessionOptions{}); !errors.Is(err, smr.ErrNoProxies) {
		t.Fatalf("NewSessionClient(nil) = %v", err)
	}
	c := newTestSessionClient(t, []string{"127.0.0.1:1"}, smr.SessionOptions{Timeout: 200 * time.Millisecond, Depth: 1})
	if err := c.Put("k", "v"); err == nil {
		t.Fatal("Put with unreachable proxy succeeded")
	}
}
