package transport_test

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
)

// testCodec returns a codec with the core protocol messages registered.
func testCodec() *consensus.Codec {
	codec := consensus.NewCodec()
	core.RegisterMessages(codec)
	return codec
}

// fastOpts are tight send-path timings so failure paths resolve quickly in
// tests.
var fastOpts = transport.TCPOptions{
	QueueDepth:   64,
	DialTimeout:  500 * time.Millisecond,
	WriteTimeout: 300 * time.Millisecond,
	BackoffMin:   10 * time.Millisecond,
	BackoffMax:   200 * time.Millisecond,
}

// TestTCPSlowPeerDoesNotBlockHealthy is the head-of-line-blocking
// regression test: with one peer connected but never reading from its
// socket, 1000 sends to a healthy peer must all complete in under a second.
// Under the old global-lock send path the stalled write held the transport
// mutex and froze every peer.
func TestTCPSlowPeerDoesNotBlockHealthy(t *testing.T) {
	codec := testCodec()

	// Stalled peer: accepts connections and then never reads.
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	var (
		heldMu sync.Mutex
		held   []net.Conn
	)
	defer func() {
		heldMu.Lock()
		defer heldMu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := stall.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()

	addrs := map[consensus.ProcessID]string{
		0: "127.0.0.1:0",
		1: "127.0.0.1:0",
		2: stall.Addr().String(),
	}
	var c0, c1 collector
	opts := fastOpts
	opts.QueueDepth = 1024
	t0, err := transport.NewTCPWithOptions(0, addrs, codec, c0.handle, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t1, err := transport.NewTCP(1, addrs, codec, c1.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t0.SetPeerAddr(1, t1.Addr())

	// Wedge peer 2's writer: large frames fill the socket buffers, after
	// which each write blocks until its deadline. None of this may touch
	// sends to peer 1.
	big := &core.DecideMsg{Value: consensus.Value{Key: 1, Data: strings.Repeat("x", 256<<10)}}
	for i := 0; i < 64; i++ {
		_ = t0.Send(2, big)
	}
	time.Sleep(50 * time.Millisecond) // let the writer sink into a blocked write

	start := time.Now()
	for i := 0; i < 1000; i++ {
		if err := t0.Send(1, &core.DecideMsg{Value: consensus.IntValue(int64(i))}); err != nil {
			t.Fatalf("send %d to healthy peer: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("1000 sends to healthy peer took %v (head-of-line blocking)", elapsed)
	}
	waitCount(t, &c1, 1000)

	st := t0.Stats()
	if st.Enqueued < 1000 {
		t.Fatalf("Enqueued = %d, want >= 1000", st.Enqueued)
	}
	if st.BytesSent == 0 {
		t.Fatalf("BytesSent = 0 after %d wire sends", st.Sends)
	}
}

// TestTCPDeadPeerFailFastAndResume kills a peer's listener mid-run, checks
// that sends to it fail fast without blocking, restarts it on the same
// address, and checks that traffic resumes within the backoff cap.
func TestTCPDeadPeerFailFastAndResume(t *testing.T) {
	codec := testCodec()
	addrs := map[consensus.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	var c0, c1 collector
	t0, err := transport.NewTCPWithOptions(0, addrs, codec, c0.handle, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t1, err := transport.NewTCP(1, addrs, codec, c1.handle)
	if err != nil {
		t.Fatal(err)
	}
	t0.SetPeerAddr(1, t1.Addr())
	oldAddr := t1.Addr()

	if err := t0.Send(1, &core.DecideMsg{Value: consensus.IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &c1, 1)

	// Kill the peer. Sends must return immediately (enqueue or drop); the
	// writer burns through its queue against a refused dial.
	if err := t1.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 200; i++ {
		_ = t0.Send(1, &core.DecideMsg{Value: consensus.IntValue(2)})
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("200 sends to a dead peer took %v, want fail-fast", elapsed)
	}
	// The writer observes the dead link within a few dial attempts.
	deadline := time.Now().Add(2 * time.Second)
	for t0.Stats().DropsByCause[transport.DropConn] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no conn drops recorded against the dead peer")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart on the same address; retransmission-style sends must get
	// through once the backoff window (capped at fastOpts.BackoffMax, plus
	// jitter) reopens.
	addrs[1] = oldAddr
	t1b, err := transport.NewTCP(1, addrs, codec, c1.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer t1b.Close()
	restart := time.Now()
	before := c1.count()
	deadline = time.Now().Add(5 * time.Second)
	for c1.count() == before {
		_ = t0.Send(1, &core.DecideMsg{Value: consensus.IntValue(3)})
		if time.Now().After(deadline) {
			t.Fatal("traffic never resumed after listener restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Generous CI slack on top of the 200ms cap + 50% jitter + dial.
	if resumed := time.Since(restart); resumed > 2*time.Second {
		t.Fatalf("traffic resumed after %v, want within the backoff cap", resumed)
	}
	if st := t0.Stats(); st.Reconnects == 0 {
		t.Fatalf("Reconnects = 0 after listener restart; stats: %s", st)
	}
}

// TestTCPOversizeSendRejected checks that the frame limit is enforced at
// encode time: the oversized message errors out at the caller and the
// connection stays healthy for subsequent traffic.
func TestTCPOversizeSendRejected(t *testing.T) {
	t0, t1, _, c1 := newTCPPair(t)
	defer t0.Close()
	defer t1.Close()

	big := &core.DecideMsg{Value: consensus.Value{Key: 1, Data: strings.Repeat("x", 2<<20)}}
	err := t0.Send(1, big)
	if !errors.Is(err, transport.ErrOversize) {
		t.Fatalf("oversized send: err = %v, want ErrOversize", err)
	}
	st := t0.Stats()
	if st.DropsByCause[transport.DropOversize] != 1 {
		t.Fatalf("oversize drops = %d, want 1 (stats: %s)", st.DropsByCause[transport.DropOversize], st)
	}
	if st.DropsByPeer[1] != 1 {
		t.Fatalf("drops charged to peer 1 = %d, want 1", st.DropsByPeer[1])
	}

	// The link was never poisoned: a normal message still round-trips.
	if err := t0.Send(1, &core.DecideMsg{Value: consensus.IntValue(5)}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, c1, 1)
}

// framed puts the 4-byte length prefix in front of payload.
func framed(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// envelope is a frame payload as TCP.Send builds it: version byte, sender,
// then the codec's encoding of the message.
func envelope(from int, body []byte) []byte {
	return append(consensus.AppendVarint([]byte{consensus.FormatVersion}, int64(from)), body...)
}

// rawFrame writes one length-prefixed frame with an arbitrary sender id.
func rawFrame(t *testing.T, conn net.Conn, from int, body []byte) {
	t.Helper()
	if _, err := conn.Write(framed(envelope(from, body))); err != nil {
		t.Fatal(err)
	}
}

// TestTCPRejectsUnknownSender checks that frames whose wire-supplied sender
// id is negative or absent from the address book never reach the handler.
func TestTCPRejectsUnknownSender(t *testing.T) {
	codec := testCodec()
	addrs := map[consensus.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:7999"}
	var c collector
	tr, err := transport.NewTCP(0, addrs, codec, c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body, err := codec.Encode(&core.DecideMsg{Value: consensus.IntValue(9)})
	if err != nil {
		t.Fatal(err)
	}
	rawFrame(t, conn, -1, body) // negative id
	rawFrame(t, conn, 7, body)  // not in the address book
	rawFrame(t, conn, 1, body)  // legitimate

	waitCount(t, &c, 1)
	time.Sleep(50 * time.Millisecond) // window for any spurious delivery
	if got := c.count(); got != 1 {
		t.Fatalf("delivered %d messages, want only the valid sender's", got)
	}
	if c.from[0] != 1 {
		t.Fatalf("from = %v, want 1", c.from[0])
	}
	st := tr.Stats()
	if st.DropsByCause[transport.DropBadSender] != 2 {
		t.Fatalf("bad-sender drops = %d, want 2 (stats: %s)", st.DropsByCause[transport.DropBadSender], st)
	}
}

// waitDrops polls tr's counter for cause until it reads want.
func waitDrops(t *testing.T, tr *transport.TCP, cause transport.DropCause, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); tr.Stats().DropsByCause[cause] != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s drops = %d, want %d (stats: %s)", cause, tr.Stats().DropsByCause[cause], want, tr.Stats())
		}
	}
}

// TestTCPCountsBadFrames: an inbound frame that does not decode is counted,
// not silently skipped. A body the codec refuses — an unknown kind, a
// truncated message — leaves the connection up (the framing is intact); a
// first byte that is not the format version (a JSON-era peer) closes it.
func TestTCPCountsBadFrames(t *testing.T) {
	codec := testCodec()
	addrs := map[consensus.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:7999"}
	var c collector
	tr, err := transport.NewTCP(0, addrs, codec, c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	good, _ := codec.Encode(&core.DecideMsg{Value: consensus.IntValue(9)})
	rawFrame(t, conn, 1, consensus.AppendStr(nil, "no.such.kind"))
	rawFrame(t, conn, 1, good[:len(good)-3]) // a binary frame cut short inside its value
	rawFrame(t, conn, 1, good)
	waitCount(t, &c, 1) // the connection survived both
	waitDrops(t, tr, transport.DropBadFrame, 2)
	if st := tr.Stats(); st.DropsByPeer[1] != 2 || !strings.Contains(st.String(), "bad-frame=2") {
		t.Fatalf("stats after two undecodable bodies: %s (by peer %v)", st, st.DropsByPeer)
	}

	// What the parent commit put on the wire.
	if _, err := conn.Write(framed([]byte(`{"from":1,"msg":{"kind":"core.decide","body":{"value":{"key":9}}}}`))); err != nil {
		t.Fatal(err)
	}
	waitDrops(t, tr, transport.DropBadFrame, 3)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after a frame of another format version: %v", err)
	}
	if got := c.count(); got != 1 {
		t.Fatalf("delivered %d messages, want 1", got)
	}
}

// TestTCPBackToBackFramesDoNotAlias: the read loop reuses one buffer, so a
// message the handler kept must own its bytes. Two frames arrive in one
// segment, the second overwriting the buffer the first was decoded from.
func TestTCPBackToBackFramesDoNotAlias(t *testing.T) {
	codec := testCodec()
	addrs := map[consensus.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:7999"}
	var c collector
	tr, err := transport.NewTCP(0, addrs, codec, c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	first := consensus.Value{Key: 1, Data: strings.Repeat("A", 300)}
	second := consensus.Value{Key: 2, Data: strings.Repeat("B", 300)}
	var wire []byte
	for _, v := range []consensus.Value{first, second} {
		body, _ := codec.Encode(&core.TwoB{Ballot: 0, Value: v})
		wire = append(wire, framed(envelope(1, body))...)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &c, 2)
	c.mu.Lock()
	defer c.mu.Unlock()
	if got := c.got[0].(*core.TwoB).Value; got != first {
		t.Fatalf("first message was overwritten by the second: %.20q…", got.Data)
	}
	if got := c.got[1].(*core.TwoB).Value; got != second {
		t.Fatalf("second message = %.20q…", got.Data)
	}
}

// TestTCPCountsASendBeforeItsDelivery: a frame is in the sender's Sends before
// the receiver can have handled it, so a count taken on the receiving side
// never runs ahead of the sending side's. The receiver checks it on every one
// of 2000 frames, while the sender's writer is still returning from the write.
func TestTCPCountsASendBeforeItsDelivery(t *testing.T) {
	const frames = 2000
	codec := testCodec()
	addrs := map[consensus.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	var handled, ahead atomic.Uint64 // ahead: frames handled while Sends said fewer
	t0, err := transport.NewTCP(0, addrs, codec, func(consensus.ProcessID, consensus.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t1, err := transport.NewTCP(1, addrs, codec, func(consensus.ProcessID, consensus.Message) {
		if n := handled.Add(1); t0.Stats().Sends < n {
			ahead.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t0.SetPeerAddr(1, t1.Addr())

	// Frames that fill the socket buffers, so the writer often parks inside a
	// write and is slow to come back from it; 250 at a time, to bound the queue.
	msg := &core.DecideMsg{Value: consensus.Value{Key: 1, Data: strings.Repeat("x", 16<<10)}}
	for sent := 0; sent < frames; {
		for end := sent + 250; sent < end; sent++ {
			if err := t0.Send(1, msg); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); handled.Load() < uint64(sent); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d frames handled (sender: %s)", handled.Load(), sent, t0.Stats())
			}
		}
	}
	if n := ahead.Load(); n > 0 {
		t.Fatalf("%d of %d frames were handled before the sender counted them", n, frames)
	}
}

// TestMeshDropCounters checks that inbox-full drops are counted per
// destination endpoint and aggregate into the fabric view.
func TestMeshDropCounters(t *testing.T) {
	mesh := transport.NewMeshWithDepth(2, 4)
	defer mesh.Close()
	var c collector
	ep0, err := mesh.Endpoint(0, c.handle)
	if err != nil {
		t.Fatal(err)
	}
	// Endpoint 1 is never attached, so its inbox is never drained: sends
	// beyond the depth of 4 must drop.
	for i := 0; i < 6; i++ {
		if err := ep0.Send(1, &core.DecideMsg{Value: consensus.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	st := ep0.Stats()
	if st.Sends != 4 || st.Drops != 2 {
		t.Fatalf("endpoint stats = %s, want sends=4 drops=2", st)
	}
	if st.DropsByPeer[1] != 2 || st.DropsByCause[transport.DropQueueFull] != 2 {
		t.Fatalf("drop breakdown = %+v / %+v, want 2 queue-full against peer 1", st.DropsByPeer, st.DropsByCause)
	}
	fabric := mesh.Stats()
	if fabric.Drops != 2 || fabric.QueueDepth != 4 {
		t.Fatalf("fabric stats = %s, want drops=2 queued=4", fabric)
	}
}

// TestStatsString pins the rendering the kv STATS command and the periodic
// stats lines rely on.
func TestStatsString(t *testing.T) {
	s := transport.Stats{
		Sends:      42,
		Drops:      3,
		Reconnects: 1,
		QueueDepth: 2,
		BytesSent:  9801,
		BytesRecv:  7730,
		DropsByCause: map[transport.DropCause]uint64{
			transport.DropConn:      1,
			transport.DropQueueFull: 1,
			transport.DropBadFrame:  1,
		},
	}
	want := "sends=42 drops=3 (queue-full=1 conn=1 bad-frame=1) reconnects=1 queued=2 out=9801 in=7730"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	merged := s.Merge(transport.Stats{Drops: 1, DropsByCause: map[transport.DropCause]uint64{transport.DropConn: 1}})
	if merged.Drops != 4 || merged.DropsByCause[transport.DropConn] != 2 {
		t.Fatalf("Merge = %s", merged)
	}
}
