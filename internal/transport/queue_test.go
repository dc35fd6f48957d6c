package transport_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
)

// heldLink returns an endpoint whose frames to peer 1 wait an hour on the
// LinkDelay shim, with QueueDepth 8, after one frame has been sent and the
// writer has taken it into its hand.
func heldLink(t *testing.T) *transport.TCP {
	t.Helper()
	addrs := map[consensus.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:1"}
	opts := fastOpts
	opts.QueueDepth = 8
	opts.LinkDelay = func(consensus.ProcessID) time.Duration { return time.Hour }
	tr, err := transport.NewTCPWithOptions(0, addrs, testCodec(), func(consensus.ProcessID, consensus.Message) {}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, &core.DecideMsg{Value: consensus.IntValue(0)}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); tr.Stats().QueueDepth != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the writer never took the first frame: %s", tr.Stats())
		}
	}
	return tr
}

// TestTCPQueueBound: QueueDepth frames may wait behind the one the writer
// holds, so QueueDepth 8 accepts 9 frames; the next sends are refused with
// ErrQueueFull and counted as queue-full drops.
func TestTCPQueueBound(t *testing.T) {
	tr := heldLink(t)
	defer tr.Close()
	for i := 1; i <= 8; i++ {
		if err := tr.Send(1, &core.DecideMsg{Value: consensus.IntValue(int64(i))}); err != nil {
			t.Fatalf("frame %d of 9: %v", i+1, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := tr.Send(1, &core.DecideMsg{}); !errors.Is(err, transport.ErrQueueFull) {
			t.Fatalf("send past the bound: err = %v, want ErrQueueFull", err)
		}
	}
	st := tr.Stats()
	if st.Enqueued != 9 || st.QueueDepth != 8 || st.Drops != 3 || st.DropsByCause[transport.DropQueueFull] != 3 {
		t.Fatalf("stats = %s (enqueued %d), want 9 accepted, 8 queued, 3 queue-full drops", st, st.Enqueued)
	}
}

// TestTCPCloseCountsUnwrittenFrames: a frame Send accepted is written or
// counted as a drop. Close catches 8 queued frames and one in the writer's
// hand; all 9 become closed drops and the queue depth returns to 0.
func TestTCPCloseCountsUnwrittenFrames(t *testing.T) {
	tr := heldLink(t)
	for i := 1; i <= 8; i++ {
		if err := tr.Send(1, &core.DecideMsg{Value: consensus.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.QueueDepth != 0 || st.Drops != 9 || st.DropsByCause[transport.DropClosed] != 9 {
		t.Fatalf("after Close: %s, want queued=0 and 9 closed drops", st)
	}
}

// TestTCPFIFOAcrossBursts: 5000 frames sent in bursts of 1 to 199 empty,
// refill, grow and slide the peer's queue many times over. They arrive in
// send order, with and without LinkDelay.
func TestTCPFIFOAcrossBursts(t *testing.T) {
	const frames = 5000
	for _, tc := range []struct {
		name  string
		delay time.Duration
	}{{"no-delay", 0}, {"link-delay", 2 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := map[consensus.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
			opts := fastOpts
			opts.QueueDepth = frames
			if tc.delay > 0 {
				opts.LinkDelay = func(consensus.ProcessID) time.Duration { return tc.delay }
			}
			t0, err := transport.NewTCPWithOptions(0, addrs, testCodec(), func(consensus.ProcessID, consensus.Message) {}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer t0.Close()
			var c collector
			t1, err := transport.NewTCP(1, addrs, testCodec(), c.handle)
			if err != nil {
				t.Fatal(err)
			}
			defer t1.Close()
			t0.SetPeerAddr(1, t1.Addr())

			for sent, burst := 0, 1; sent < frames; burst = burst*7%199 + 1 {
				for end := min(sent+burst, frames); sent < end; sent++ {
					if err := t0.Send(1, &core.DecideMsg{Value: consensus.IntValue(int64(sent))}); err != nil {
						t.Fatalf("send %d: %v", sent, err)
					}
				}
				if burst%3 == 0 {
					time.Sleep(100 * time.Microsecond) // let the writer drain mid-stream
				}
			}
			waitCount(t, &c, frames)
			c.mu.Lock()
			defer c.mu.Unlock()
			for i, m := range c.got {
				if got := m.(*core.DecideMsg).Value.Key; got != int64(i) {
					t.Fatalf("frame %d arrived in place %d", got, i)
				}
			}
			if st := t0.Stats(); st.Drops != 0 {
				t.Fatalf("sender dropped frames: %s", st)
			}
		})
	}
}

// TestTCPFIFOWhenLaterFramesAreDueEarlier: each frame's LinkDelay is 100 µs
// shorter than the one before, so a later frame's due stamp is earlier than
// its predecessor's. The writer releases in queue order, a frame that is
// already due right behind the one it waited for: they arrive in send order.
func TestTCPFIFOWhenLaterFramesAreDueEarlier(t *testing.T) {
	const frames = 200
	addrs := map[consensus.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	opts := fastOpts
	opts.QueueDepth = frames
	next := 0 // Send calls LinkDelay on the sending goroutine, once per frame
	opts.LinkDelay = func(consensus.ProcessID) time.Duration {
		next++
		return time.Duration(frames+1-next) * 100 * time.Microsecond
	}
	t0, err := transport.NewTCPWithOptions(0, addrs, testCodec(), func(consensus.ProcessID, consensus.Message) {}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	var c collector
	t1, err := transport.NewTCP(1, addrs, testCodec(), c.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t0.SetPeerAddr(1, t1.Addr())
	for i := range frames {
		if err := t0.Send(1, &core.DecideMsg{Value: consensus.IntValue(int64(i))}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitCount(t, &c, frames)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.got {
		if got := m.(*core.DecideMsg).Value.Key; got != int64(i) {
			t.Fatalf("frame %d arrived in place %d", got, i)
		}
	}
}
