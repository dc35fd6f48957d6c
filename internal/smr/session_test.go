package smr_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/smr"
)

func newTestSessionClient(t *testing.T, addrs []string, opts smr.SessionOptions) *smr.SessionClient {
	t.Helper()
	c, err := smr.NewSessionClient(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestSessionNegotiation pins the HELLO/OHAI handshake: the client must
// come up against a session server and report the server's Ω-leader hint.
func TestSessionNegotiation(t *testing.T) {
	addrs, _, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()
	c := newTestSessionClient(t, addrs[:1], smr.SessionOptions{Timeout: 10 * time.Second})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if l := c.LeaderHint(); l < 0 || l > 2 {
		t.Fatalf("leader hint = %d, want a replica id", l)
	}
}

// TestSessionPutGetDelete runs the basic KV workflow through a pipelined
// session.
func TestSessionPutGetDelete(t *testing.T) {
	addrs, _, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()
	c := newTestSessionClient(t, addrs, smr.SessionOptions{Timeout: 10 * time.Second})

	if err := c.Put("color", "teal"); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get("color"); err != nil || got != "teal" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if got, err := c.GetLinearizable("color"); err != nil || got != "teal" {
		t.Fatalf("GetLinearizable = %q, %v", got, err)
	}
	if err := c.Delete("color"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("color"); !errors.Is(err, smr.ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	if line, err := c.Stats(); err != nil || !strings.Contains(line, "sends=") {
		t.Fatalf("Stats = %q, %v", line, err)
	}
	if line, err := c.Info(); err != nil || !strings.Contains(line, "applied=") {
		t.Fatalf("Info = %q, %v", line, err)
	}
}

// TestWhitespaceExactRoundTrip pins the strings.Fields parsing bug: a
// value with consecutive spaces, tabs, or trailing whitespace must come
// back byte-for-byte identical — the old server rewrote "a  b" to "a b".
func TestWhitespaceExactRoundTrip(t *testing.T) {
	addrs, _, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()

	values := []string{
		"a  b",            // consecutive spaces (the reported corruption)
		"tab\tseparated",  // tabs (strings.Fields split on these too)
		" leading",        // leading space
		"trailing  ",      // trailing run
		"a \t mix\t\t of", // everything at once
		"",                // empty value
	}
	check := func(t *testing.T, put func(k, v string) error, get func(k string) (string, error)) {
		for i, v := range values {
			key := fmt.Sprintf("ws%d", i)
			if err := put(key, v); err != nil {
				t.Fatalf("Put(%q, %q): %v", key, v, err)
			}
			got, err := get(key)
			if err != nil {
				t.Fatalf("Get(%q): %v", key, err)
			}
			if got != v {
				t.Fatalf("value %q round-tripped as %q", v, got)
			}
		}
	}
	t.Run("v1 raw lines", func(t *testing.T) {
		conn, rd := dialRaw(t, addrs[0])
		check(t, func(k, v string) error {
			if got := rawLine(t, conn, rd, "PUT "+k+" "+v); got != "OK" {
				return errors.New(got)
			}
			return nil
		}, func(k string) (string, error) {
			got := rawLine(t, conn, rd, "GET "+k)
			if !strings.HasPrefix(got, "VAL ") {
				return "", errors.New(got)
			}
			return strings.TrimPrefix(got, "VAL "), nil
		})
	})
	t.Run("session client", func(t *testing.T) {
		c := newTestSessionClient(t, addrs[:1], smr.SessionOptions{Timeout: 10 * time.Second})
		check(t, c.Put, c.Get)
	})
}

// TestInjectionRejected pins the command-injection fix: keys and values
// carrying line terminators (or keys carrying spaces) must be refused
// client-side as definite rejections, before any bytes reach a server.
func TestInjectionRejected(t *testing.T) {
	addrs, _, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()

	requireRejected := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("expected a rejection")
		}
		if !errors.Is(err, smr.ErrRejected) || errors.Is(err, smr.ErrMaybeApplied) {
			t.Fatalf("err = %v; want ErrRejected, not maybe-applied", err)
		}
	}
	sc := newTestSessionClient(t, addrs[:1], smr.SessionOptions{Timeout: 10 * time.Second})

	if err := sc.Put("k", "safe"); err != nil {
		t.Fatal(err)
	}
	requireRejected(t, sc.Put("k", "v\nDEL k"))
	requireRejected(t, sc.Put("k", "v\r\nDEL k"))
	requireRejected(t, sc.Put("k\nDEL k", "v"))
	requireRejected(t, sc.Put("bad key", "v"))
	requireRejected(t, sc.Put("bad\tkey", "v"))
	requireRejected(t, sc.Put("", "v"))
	requireRejected(t, sc.Delete("k\nPUT k gone"))
	// The injection attempts must not have executed their payloads.
	if got, err := sc.GetLinearizable("k"); err != nil || got != "safe" {
		t.Fatalf("k = %q, %v after injection attempts; want %q intact", got, err, "safe")
	}
}

// TestStatsErrorTaxonomy pins satellite 3: Stats/Info failures must obey
// the every-failure-is-exactly-one-of-the-two invariant instead of
// leaking raw transport errors.
func TestStatsErrorTaxonomy(t *testing.T) {
	requireVerdict := func(t *testing.T, err error, maybe bool) {
		t.Helper()
		if err == nil {
			t.Fatal("expected an error")
		}
		if errors.Is(err, smr.ErrMaybeApplied) != maybe || errors.Is(err, smr.ErrRejected) == maybe {
			t.Fatalf("err %v: ErrMaybeApplied=%t ErrRejected=%t, want maybe=%t",
				err, errors.Is(err, smr.ErrMaybeApplied), errors.Is(err, smr.ErrRejected), maybe)
		}
	}

	t.Run("dial failure is rejected", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		c := newTestSessionClient(t, []string{addr}, smr.SessionOptions{Timeout: 500 * time.Millisecond})
		_, err = c.Stats()
		requireVerdict(t, err, false)
		_, err = c.Info()
		requireVerdict(t, err, false)
	})
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			t.Run("cut after send is maybe-applied", func(t *testing.T) {
				addrs := w.serve(t, func(string) *string { return nil })
				c := newTestSessionClient(t, addrs, smr.SessionOptions{Timeout: time.Second})
				_, err := c.Stats()
				requireVerdict(t, err, true)
			})
			t.Run("weird reply classifies by content", func(t *testing.T) {
				addrs := w.serve(t, func(string) *string { return str("ERR unknown command STATS") })
				c := newTestSessionClient(t, addrs, smr.SessionOptions{Timeout: time.Second})
				_, err := c.Stats()
				requireVerdict(t, err, false)
			})
		})
	}
}

// TestSessionRefusesV1Server runs the session client against a v1-only
// server (the scripted server answers HELLO the way the old binary would):
// there is no client-side fallback, so the refusal is a definite rejection
// and nothing but the HELLO was ever sent.
func TestSessionRefusesV1Server(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	addr := scriptedServer(t, func(line string) *string {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, line)
		if strings.HasPrefix(line, "HELLO") {
			return str("ERR unknown command HELLO")
		}
		return str("OK")
	})
	c := newTestSessionClient(t, []string{addr}, smr.SessionOptions{Timeout: 2 * time.Second})
	err := c.Put("k", "v1-value")
	if !errors.Is(err, smr.ErrRejected) || errors.Is(err, smr.ErrMaybeApplied) {
		t.Fatalf("Put against a v1-only server = %v, want a definite rejection", err)
	}
	if c.LeaderHint() != -1 {
		t.Fatalf("leader hint = %d with no session, want -1", c.LeaderHint())
	}
	if _, err := c.Get("k"); !errors.Is(err, smr.ErrRejected) {
		t.Fatalf("Get = %v, want a definite rejection", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range lines {
		if line != "HELLO 2" {
			t.Fatalf("the server was sent %q: %q", line, lines)
		}
	}
	if len(lines) == 0 {
		t.Fatal("the server never saw the HELLO")
	}
}

// sessionScriptServer speaks just enough of the v2 protocol for failure
// tests: it accepts HELLO, then hands each frame to reply; returning nil
// closes the connection (the mid-request crash).
func sessionScriptServer(t *testing.T, reply func(tag, cmd string) *string) string {
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
				if !sc.Scan() || !strings.HasPrefix(sc.Text(), "HELLO") {
					return
				}
				fmt.Fprintln(conn, "OHAI 2 0 0")
				for sc.Scan() {
					tag, cmd, _ := strings.Cut(sc.Text(), " ")
					r := reply(tag, cmd)
					if r == nil {
						return
					}
					if *r != "" {
						fmt.Fprintf(conn, "%s %s\n", tag, *r)
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestSessionFailoverVerdicts pins the in-flight failure rules: a write
// whose frame reached a dying connection is maybe-applied; a write the
// client never managed to send anywhere is rejected; reads retry onto the
// next proxy transparently.
func TestSessionFailoverVerdicts(t *testing.T) {
	t.Run("sent write dies maybe-applied", func(t *testing.T) {
		addr := sessionScriptServer(t, func(tag, cmd string) *string { return nil })
		c := newTestSessionClient(t, []string{addr}, smr.SessionOptions{Timeout: 2 * time.Second})
		err := c.Put("k", "v")
		if !errors.Is(err, smr.ErrMaybeApplied) {
			t.Fatalf("Put on dying session = %v, want ErrMaybeApplied", err)
		}
	})
	t.Run("unreachable proxy rejects", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		c := newTestSessionClient(t, []string{addr}, smr.SessionOptions{Timeout: 500 * time.Millisecond})
		if err := c.Put("k", "v"); !errors.Is(err, smr.ErrRejected) {
			t.Fatalf("Put on unreachable proxy = %v, want ErrRejected", err)
		}
	})
	t.Run("reads fail over to the next proxy", func(t *testing.T) {
		dead := sessionScriptServer(t, func(tag, cmd string) *string { return nil })
		var mu sync.Mutex
		served := 0
		alive := sessionScriptServer(t, func(tag, cmd string) *string {
			mu.Lock()
			served++
			mu.Unlock()
			return str("VAL recovered")
		})
		c := newTestSessionClient(t, []string{dead, alive}, smr.SessionOptions{Timeout: 2 * time.Second})
		got, err := c.Get("k")
		if err != nil || got != "recovered" {
			t.Fatalf("Get across failover = %q, %v", got, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if served == 0 {
			t.Fatal("second proxy never served the retried read")
		}
	})
	t.Run("reply timeout rotates and is maybe-applied", func(t *testing.T) {
		addr := sessionScriptServer(t, func(tag, cmd string) *string {
			return str("") // swallow: no reply, connection stays open
		})
		c := newTestSessionClient(t, []string{addr}, smr.SessionOptions{Timeout: 300 * time.Millisecond})
		if err := c.Put("k", "v"); !errors.Is(err, smr.ErrMaybeApplied) {
			t.Fatalf("timed-out Put = %v, want ErrMaybeApplied", err)
		}
	})
}

// TestSessionOutOfOrderCompletion proves the demux actually demultiplexes:
// a server that answers tag 2 before tag 1 must still resolve each caller
// with its own reply.
func TestSessionOutOfOrderCompletion(t *testing.T) {
	var mu sync.Mutex
	var held *string // the swallowed first GET's tag
	var heldConn net.Conn
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		sc := bufio.NewScanner(conn)
		sc.Scan() // HELLO
		fmt.Fprintln(conn, "OHAI 2 0 0")
		for sc.Scan() {
			tag, cmd, _ := strings.Cut(sc.Text(), " ")
			mu.Lock()
			if strings.HasPrefix(cmd, "GET slow") && held == nil {
				tagCopy := tag
				held = &tagCopy
				heldConn = conn
				mu.Unlock()
				continue // hold the first reply back
			}
			fmt.Fprintf(conn, "%s VAL fast\n", tag)
			if held != nil {
				fmt.Fprintf(heldConn, "%s VAL slow\n", *held)
				held = nil
			}
			mu.Unlock()
		}
	}()
	c := newTestSessionClient(t, []string{ln.Addr().String()}, smr.SessionOptions{Timeout: 5 * time.Second})

	var wg sync.WaitGroup
	var slowVal, fastVal string
	var slowErr, fastErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		slowVal, slowErr = c.Get("slow")
	}()
	// Make sure the slow GET is in flight before the fast one.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		inFlight := held != nil
		mu.Unlock()
		if inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow GET never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	fastVal, fastErr = c.Get("fast")
	wg.Wait()
	if fastErr != nil || fastVal != "fast" {
		t.Fatalf("fast Get = %q, %v", fastVal, fastErr)
	}
	if slowErr != nil || slowVal != "slow" {
		t.Fatalf("slow Get = %q, %v", slowVal, slowErr)
	}
}

// TestSessionConcurrentInFlight drives ≥64 concurrent operations through
// one pipelined connection against a real cluster — the -race exercise
// for the tag table, writer, and demux. (CI runs this package under
// -race; see the Makefile race target.)
func TestSessionConcurrentInFlight(t *testing.T) {
	addrs, servers, cleanup := startServedCluster(t, 3, 1, 1)
	defer cleanup()
	c := newTestSessionClient(t, addrs, smr.SessionOptions{Timeout: 20 * time.Second, Depth: 128})

	const goroutines = 64
	const opsEach = 4
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				val := fmt.Sprintf("v%d.%d", g, i)
				if err := c.Put(key, val); err != nil {
					errCh <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				got, err := c.Get(key)
				if err != nil || got != val {
					errCh <- fmt.Errorf("get %s = %q, %v; want %q", key, got, err, val)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	// All traffic multiplexed over session connections, not one per op.
	var counters smr.ServerCounters
	for _, s := range servers {
		cs := s.Counters()
		counters.Sessions += cs.Sessions
		counters.Frames += cs.Frames
	}
	if counters.Sessions == 0 || counters.Frames < goroutines*opsEach {
		t.Fatalf("server counters %+v: want ≥1 session and ≥%d frames", counters, goroutines*opsEach)
	}
}
