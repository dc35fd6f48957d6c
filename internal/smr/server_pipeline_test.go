package smr_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/smr"
)

// The session server's pipeline: a consensus command is answered by its
// completion, which runs on the process's one IOScheduler consumer and only
// queues a reply; a connection's writer writes what was queued together in
// one flush. These tests hold the process's fsync to pin each rule.

// stalledServer boots a durable 3-process cluster of groups groups whose
// process 0 holds every fsync while stall is armed, fronted by a server with
// op timeout opTimeout. release heals the stall for good.
func stalledServer(t *testing.T, groups int, opTimeout time.Duration) (c *testCluster, srv *smr.Server, stall func(), release func()) {
	t.Helper()
	var armed atomic.Bool
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { armed.Store(false); close(gate) }) }
	dur := durableUnder(t.TempDir(), func() {
		if armed.Load() {
			<-gate
		}
	})
	c = newTestCluster(t, 3, 1, 1, procOptions{groups: groups, dur: dur})
	t.Cleanup(release) // first: a wedged consumer would hang the cluster's close
	srv, err := smr.NewBackendServer(c.rts[0], "127.0.0.1:0", opTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return c, srv, func() { armed.Store(true) }, release
}

// dialSessionRaw opens a raw session connection past its handshake.
func dialSessionRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, rd := dialRaw(t, addr)
	fmt.Fprintln(conn, "HELLO 2")
	if ohai := readReply(t, rd); !strings.HasPrefix(ohai, "OHAI 2 ") {
		t.Fatalf("OHAI = %q", ohai)
	}
	return conn, rd
}

// sendPuts writes PUT frames tagged from..to-1 in one write.
func sendPuts(t *testing.T, conn net.Conn, from, to int) {
	t.Helper()
	var b strings.Builder
	for tag := from; tag < to; tag++ {
		fmt.Fprintf(&b, "%d PUT k%d v%d\n", tag, tag, tag)
	}
	if _, err := conn.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
}

// TestSessionBusyAtInflightBound: with the fsync held nothing completes, so
// every admitted PUT stays in flight; past 16+256 of them a frame is refused
// "ERR busy" at once, and ServerCounters.Busy counts each refusal. Healed,
// every admitted PUT commits.
func TestSessionBusyAtInflightBound(t *testing.T) {
	_, srv, stall, release := stalledServer(t, 1, 10*time.Second)
	conn, rd := dialSessionRaw(t, srv.Addr())
	const bound, over = 16 + 256, 5
	stall()
	sendPuts(t, conn, 1, bound+over+1)
	for i := 0; i < over; i++ {
		got := readReply(t, rd)
		var tag int
		fmt.Sscan(got, &tag)
		if _, rest, _ := strings.Cut(got, " "); !strings.HasPrefix(rest, "ERR busy") || tag <= bound {
			t.Fatalf("reply %d while stalled = %q, want ERR busy for a tag past %d", i, got, bound)
		}
	}
	if n := srv.Counters().Busy; n != over {
		t.Fatalf("Counters().Busy = %d, want %d", n, over)
	}
	release()
	for i := 0; i < bound; i++ {
		if got := readReply(t, rd); !strings.HasSuffix(got, " OK") {
			t.Fatalf("admitted PUT answered %q after the heal", got)
		}
	}
}

// TestSessionOpDeadlineAnswersOnceAndLateCompletionWritesNothing: a PUT held
// past the server's op timeout by a stalled fsync is answered "ERR … deadline
// exceeded"; once healed, it still commits, and its completion writes no
// second reply — the next line on the connection answers the next frame.
func TestSessionOpDeadlineAnswersOnceAndLateCompletionWritesNothing(t *testing.T) {
	c, srv, stall, release := stalledServer(t, 1, 200*time.Millisecond)
	conn, rd := dialSessionRaw(t, srv.Addr())
	stall()
	start := time.Now()
	fmt.Fprintln(conn, "1 PUT late v")
	got := readReply(t, rd)
	if !strings.HasPrefix(got, "1 ERR ") || !strings.HasSuffix(got, "deadline exceeded") {
		t.Fatalf("held PUT answered %q, want 1 ERR … deadline exceeded", got)
	}
	if waited := time.Since(start); waited < 200*time.Millisecond {
		t.Fatalf("held PUT answered after %v, before its op timeout", waited)
	}
	release()
	r := c.rts[0].Route("late")
	for end := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, ok := r.Get("late"); ok && v == "v" {
			break
		}
		if time.Now().After(end) {
			t.Fatal("the timed-out PUT never committed after the heal")
		}
	}
	r.SyncIO() // its verdict has been delivered: the completion has run
	fmt.Fprintln(conn, "2 PING")
	if got := readReply(t, rd); got != "2 PONG" {
		t.Fatalf("next line after the late completion = %q, want 2 PONG", got)
	}
	// The timed-out command released its admission: the connection takes a
	// full window again.
	sendPuts(t, conn, 3, 3+16+256)
	for i := 0; i < 16+256; i++ {
		if got := readReply(t, rd); !strings.HasSuffix(got, " OK") {
			t.Fatalf("PUT after the timeout answered %q", got)
		}
	}
}

// TestSlowReaderDoesNotStallTheProcess: a session whose client stops reading
// fills its socket with replies until its writer blocks; its PUTs still
// commit, and a second connection's PUTs to both groups keep committing,
// because a completion only queues a reply and never waits for the writer.
func TestSlowReaderDoesNotStallTheProcess(t *testing.T) {
	c, srv, _, _ := stalledServer(t, 2, 10*time.Second)
	conn, rd := dialSessionRaw(t, srv.Addr())
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	big := strings.Repeat("x", 512<<10)
	fmt.Fprintf(conn, "1 PUT big %s\n", big)
	if got := readReply(t, rd); got != "1 OK" {
		t.Fatalf("PUT big = %q", got)
	}
	// 16 MiB of replies nobody reads: the writer blocks in its write.
	var b strings.Builder
	for tag := 2; tag < 34; tag++ {
		fmt.Fprintf(&b, "%d GET big\n", tag)
	}
	conn.Write([]byte(b.String()))
	sendPuts(t, conn, 100, 200)

	rt := c.rts[0]
	keys := map[int][]string{}
	for i := 0; len(keys[0]) < 20 || len(keys[1]) < 20; i++ {
		k := fmt.Sprintf("other%d", i)
		g := rt.Router().Group(k)
		keys[g] = append(keys[g], k)
	}
	client := newTestSessionClient(t, []string{srv.Addr()}, smr.SessionOptions{Timeout: 10 * time.Second, Depth: 8})
	done := make(chan error, 1)
	go func() {
		for _, k := range append(keys[0][:20], keys[1][:20]...) {
			if err := client.Put(k, "v"); err != nil {
				done <- fmt.Errorf("put %s: %w", k, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a second connection's PUTs stalled behind a client that stopped reading")
	}
	for tag := 100; tag < 200; tag++ {
		k := fmt.Sprintf("k%d", tag)
		for end := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if v, ok := rt.Get(k); ok && v == fmt.Sprintf("v%d", tag) {
				break
			}
			if time.Now().After(end) {
				t.Fatalf("the stalled reader's PUT %s never committed", k)
			}
		}
	}
}

// TestChunkRidersCostOneReplyWrite: 16 PUTs of one connection that arrive
// while a chunk is in flight ride the next chunk together (the batcher holds
// it a beat for company), and each resolved chunk costs the connection at
// most one reply write, however many of its riders it answers. The fsync is
// held until both chunks are in flight, so their verdicts come together.
func TestChunkRidersCostOneReplyWrite(t *testing.T) {
	c, srv, stall, release := stalledServer(t, 1, 10*time.Second)
	conn, rd := dialSessionRaw(t, srv.Addr())
	r := c.rts[0].Route("k1")
	before, writes := r.BatchStats(), srv.ReplyWrites()
	launched := func(chunks uint64) {
		t.Helper()
		for end := time.Now().Add(5 * time.Second); r.BatchStats().Batches < before.Batches+chunks; time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatalf("%+v: chunk %d never launched", r.BatchStats(), chunks)
			}
		}
	}
	stall()
	sendPuts(t, conn, 1, 2)
	launched(1)
	sendPuts(t, conn, 2, 18)
	launched(2)
	release()
	for i := 0; i < 17; i++ {
		if got := readReply(t, rd); !strings.HasSuffix(got, " OK") {
			t.Fatalf("PUT answered %q", got)
		}
	}
	after := r.BatchStats()
	chunks, cmds := after.Batches-before.Batches, after.Cmds-before.Cmds
	if chunks != 2 || cmds != 17 {
		t.Fatalf("%d commands in %d chunks, want 17 in 2 (1, then 16)", cmds, chunks)
	}
	if n := srv.ReplyWrites() - writes; n > chunks {
		t.Fatalf("%d reply writes for %d resolved chunks on one connection, want at most one each", n, chunks)
	}
}
