package transport

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
)

// queueCap reads the capacity of p's queue buffer.
func (p *tcpPeer) queueCap() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return cap(p.queue)
}

// TestTCPBurstDoesNotStayResident: 1000 frames queue up behind one the
// writer holds on a LinkDelay; once they are written and the link is quiet,
// the peer's buffer keeps no more than maxSpareFrames of capacity.
func TestTCPBurstDoesNotStayResident(t *testing.T) {
	const burst = 1000
	codec := consensus.NewCodec()
	core.RegisterMessages(codec)
	addrs := map[consensus.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	// Far longer than the burst takes to send, so the writer still holds
	// the first frame when the burst is in.
	const delay = time.Second
	t0, err := NewTCPWithOptions(0, addrs, codec, func(consensus.ProcessID, consensus.Message) {},
		TCPOptions{LinkDelay: func(consensus.ProcessID) time.Duration { return delay }})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	arrived := make(chan struct{}, burst+1)
	t1, err := NewTCP(1, addrs, codec, func(consensus.ProcessID, consensus.Message) { arrived <- struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t0.SetPeerAddr(1, t1.Addr())

	send := func(i int) {
		t.Helper()
		if err := t0.Send(1, &core.DecideMsg{Value: consensus.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	send(0)
	for t0.Stats().QueueDepth != 0 { // the writer has taken frame 0 and holds it
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= burst; i++ {
		send(i)
	}
	t0.mu.Lock()
	p := t0.peers[1]
	t0.mu.Unlock()
	if d := t0.Stats().QueueDepth; d != burst {
		t.Fatalf("%d frames waiting after a burst of %d behind a held frame", d, burst)
	}
	if c := p.queueCap(); c < burst {
		t.Fatalf("queue capacity %d with %d frames waiting", c, burst)
	}
	for i := 0; i <= burst; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d frames arrived", i, burst+1)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		c := p.queueCap()
		if c <= maxSpareFrames {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the burst: queue capacity %d, want <= %d", c, maxSpareFrames)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPQueueThatNeverEmptiesStaysSmall: under steady traffic the writer
// pops while Send pushes and the queue is never empty, so the buffer is never
// reset; its taken prefix must still be reclaimed instead of growing forever.
func TestTCPQueueThatNeverEmptiesStaysSmall(t *testing.T) {
	p := &tcpPeer{wake: make(chan struct{}, 1)}
	stats := new(counters)
	for i := 0; i < 3; i++ {
		if err := p.push(tcpQueued{}, 8, stats); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100000; i++ {
		if err := p.push(tcpQueued{}, 8, stats); err != nil {
			t.Fatal(err)
		}
		if _, ok := p.pop(); !ok {
			t.Fatal("pop on a non-empty queue")
		}
	}
	if c := p.queueCap(); c > 16 {
		t.Fatalf("queue capacity %d after 100000 frames through a queue of 3 or 4", c)
	}
}
