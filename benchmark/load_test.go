package main

import (
	"sync"
	"testing"
	"time"
)

// stallingConn acknowledges at once, except that while stalled every Put
// waits for the stall to end.
type stallingConn struct {
	mu      sync.Mutex
	stalled chan struct{} // non-nil while stalled; closed to release
}

func (c *stallingConn) Put(key, val string) error {
	c.mu.Lock()
	ch := c.stalled
	c.mu.Unlock()
	if ch != nil {
		<-ch
	}
	return nil
}

func (c *stallingConn) GetLinearizable(string) (string, error) { return "", nil }

func (c *stallingConn) stall(d time.Duration) {
	ch := make(chan struct{})
	c.mu.Lock()
	c.stalled = ch
	c.mu.Unlock()
	time.Sleep(d)
	c.mu.Lock()
	c.stalled = nil
	c.mu.Unlock()
	close(ch)
}

// An open loop keeps its schedule through a stall, and times each request
// from when it was due: a 300 ms stall must show up as hundreds of requests
// with long latencies, not as a gap in the record.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	sp := spec{Name: "test-open", Conns: 1, Depth: 256, OpenRate: 1000}
	conn := &stallingConn{}
	led := newLedger(1)
	g := newGenerator(sp, 1, []kvConn{conn}, led, newTracer(sp.Name))
	g.window.Store(winUntraced)
	g.start()
	time.Sleep(150 * time.Millisecond)
	conn.stall(300 * time.Millisecond)
	time.Sleep(150 * time.Millisecond)
	g.halt()

	ws := g.collect(winUntraced)
	if ws.failed != 0 {
		t.Fatalf("%d failed ops", ws.failed)
	}
	// 600 ms at 1000/s; a loaded machine may run the schedule a little late.
	if ws.attempted < 500 || ws.attempted > 650 {
		t.Errorf("attempted = %d, want about 600: the schedule must not pause during the stall", ws.attempted)
	}
	slow := 0
	for _, lat := range ws.put {
		if lat >= int64(100*time.Millisecond) {
			slow++
		}
	}
	// Requests due in the first 200 ms of the stall waited at least 100 ms.
	if slow < 150 || slow > 260 {
		t.Errorf("%d requests took >= 100 ms, want about 200 (those due early in the stall)", slow)
	}
	if p50, _ := ws.put.percentile(0.5); p50 > 50 {
		t.Errorf("p50 = %.1f ms: requests outside the stall must stay fast", p50)
	}
	for k := range led.keys {
		if led.acked[k].Load() != led.issued[k] {
			t.Fatalf("key %d: acked %d, issued %d", k, led.acked[k].Load(), led.issued[k])
		}
	}
}

// A stall longer than the key space can absorb leaves requests that cannot
// be sent at all. They were due, so they count as attempted and failed — not
// as a gap that only a lower ops_s would hint at.
func TestOpenLoopCountsUnsendableRequestsAsFailed(t *testing.T) {
	sp := spec{Name: "test-open", Conns: 1, Depth: 256, OpenRate: 1000}
	conn := &stallingConn{}
	g := newGenerator(sp, 1, []kvConn{conn}, newLedger(1), newTracer(sp.Name))
	g.window.Store(winUntraced)
	g.start()
	conn.stall((keysPerConn + 200) * time.Millisecond) // 1000/s: every key is in flight after keysPerConn ms
	g.halt()

	ws := g.collect(winUntraced)
	if ws.failed < 100 || ws.failed > 250 {
		t.Errorf("failed = %d of %d attempted, want about 200", ws.failed, ws.attempted)
	}
	if ws.acked < keysPerConn || ws.attempted != ws.acked+ws.failed {
		t.Errorf("acked %d, attempted %d, failed %d: want every key's write acked and nothing uncounted", ws.acked, ws.attempted, ws.failed)
	}
}

// A closed loop never has more than Conns x Depth requests outstanding, and
// every caller writes only its own keys.
func TestClosedLoopKeepsSingleWriterKeys(t *testing.T) {
	sp := spec{Name: "test-closed", Conns: 2, Depth: 4, ReadPct: 50}
	led := newLedger(2)
	g := newGenerator(sp, 7, []kvConn{&stallingConn{}, &stallingConn{}}, led, newTracer(sp.Name))
	g.window.Store(winUntraced)
	g.start()
	time.Sleep(50 * time.Millisecond)
	g.halt()
	ws := g.collect(winUntraced)
	if len(ws.put) == 0 || len(ws.read) == 0 {
		t.Fatalf("puts=%d reads=%d, want both", len(ws.put), len(ws.read))
	}
	var writes int64
	for k := range led.keys {
		if led.acked[k].Load() != led.issued[k] {
			t.Fatalf("key %d: acked %d, issued %d", k, led.acked[k].Load(), led.issued[k])
		}
		writes += led.issued[k]
	}
	if int(writes) != len(ws.put) {
		t.Errorf("ledger saw %d writes, records say %d", writes, len(ws.put))
	}
}
