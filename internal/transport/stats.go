package transport

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/consensus"
)

// DropCause classifies why a transport dropped a message instead of
// delivering it. Dropping is legal under the at-most-once contract — the
// protocols retransmit on their timers — but every drop is counted so loss
// is observable (see docs/TRANSPORT.md).
type DropCause string

const (
	// DropQueueFull: the destination's bounded queue (per-peer outbound
	// queue for TCP, inbox for Mesh) was full.
	DropQueueFull DropCause = "queue-full"
	// DropConn: the link was down — a dial or framed write failed, or the
	// reconnect backoff window was still open.
	DropConn DropCause = "conn"
	// DropOversize: the encoded frame exceeded maxFrame.
	DropOversize DropCause = "oversize"
	// DropClosed: the transport was already closed, or it closed before
	// the peer's writer wrote an accepted frame.
	DropClosed DropCause = "closed"
	// DropBadSender: an inbound frame named a sender that is negative or
	// not in the address book; it was rejected before reaching protocol
	// code.
	DropBadSender DropCause = "bad-sender"
	// DropBadFrame: an inbound frame did not decode — its first byte is
	// not this build's format version (the connection is then closed: a
	// peer on another format never sends anything that parses), or its
	// kind is unknown or its body malformed (the connection stays). The
	// peer is the claimed sender where the envelope got that far.
	DropBadFrame DropCause = "bad-frame"
	// DropFault: an injected fault (Mesh.SetFault) discarded the message.
	// Distinct from the organic causes so chaos runs can tell deliberate
	// loss from real backpressure.
	DropFault DropCause = "fault"
)

// dropCauseOrder fixes the rendering order of Stats.String.
var dropCauseOrder = []DropCause{
	DropQueueFull, DropConn, DropOversize, DropClosed, DropBadSender, DropBadFrame, DropFault,
}

// Stats is a point-in-time snapshot of a transport's counters.
type Stats struct {
	// Enqueued counts messages accepted into an outbound queue by Send.
	Enqueued uint64
	// Sends counts frames actually written to the wire (for Mesh:
	// delivered into the destination inbox).
	Sends uint64
	// Drops counts messages dropped, across all causes.
	Drops uint64
	// Reconnects counts successful re-dials after a connection was lost.
	Reconnects uint64
	// BytesSent and BytesRecv count framed wire bytes (zero for Mesh,
	// which passes messages by reference).
	BytesSent uint64
	BytesRecv uint64
	// QueueDepth is the number of messages currently queued.
	QueueDepth int
	// DropsByCause breaks Drops down by cause.
	DropsByCause map[DropCause]uint64
	// DropsByPeer breaks Drops down by peer: the destination for outbound
	// causes, the claimed source for bad-sender and bad-frame.
	DropsByPeer map[consensus.ProcessID]uint64
}

// Merge returns the field-wise sum of s and o (queue depths add, maps
// union). Useful for aggregating endpoint stats into a fabric view.
func (s Stats) Merge(o Stats) Stats {
	out := s
	out.Enqueued += o.Enqueued
	out.Sends += o.Sends
	out.Drops += o.Drops
	out.Reconnects += o.Reconnects
	out.BytesSent += o.BytesSent
	out.BytesRecv += o.BytesRecv
	out.QueueDepth += o.QueueDepth
	if len(o.DropsByCause) > 0 {
		m := make(map[DropCause]uint64, len(s.DropsByCause)+len(o.DropsByCause))
		for k, v := range s.DropsByCause {
			m[k] = v
		}
		for k, v := range o.DropsByCause {
			m[k] += v
		}
		out.DropsByCause = m
	}
	if len(o.DropsByPeer) > 0 {
		m := make(map[consensus.ProcessID]uint64, len(s.DropsByPeer)+len(o.DropsByPeer))
		for k, v := range s.DropsByPeer {
			m[k] = v
		}
		for k, v := range o.DropsByPeer {
			m[k] += v
		}
		out.DropsByPeer = m
	}
	return out
}

// String renders a stable one-line summary, e.g.
//
//	sends=42 drops=3 (conn=2 queue-full=1) reconnects=1 queued=0 out=9801 in=7730
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sends=%d drops=%d", s.Sends, s.Drops)
	if s.Drops > 0 {
		parts := make([]string, 0, len(dropCauseOrder))
		for _, c := range dropCauseOrder {
			if n := s.DropsByCause[c]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", c, n))
			}
		}
		if len(parts) > 0 {
			fmt.Fprintf(&b, " (%s)", strings.Join(parts, " "))
		}
	}
	fmt.Fprintf(&b, " reconnects=%d queued=%d out=%d in=%d",
		s.Reconnects, s.QueueDepth, s.BytesSent, s.BytesRecv)
	return b.String()
}

// counters is the mutable tally behind Stats snapshots. The zero value is
// ready to use; all methods are safe for concurrent use.
//
// The scalar counts are sync/atomic wrappers, not mutex-guarded fields: the
// happy path bumps them once per Send and once per wire write, from every
// sender goroutine and every per-peer writer at once, and a shared Mutex
// there serializes exactly the goroutines the per-peer queues exist to
// decouple. Only the two drop-breakdown maps keep the lock, and they sit on
// the drop path, which is off the hot path by definition. The atomicguard
// analyzer holds every access to the atomic discipline. A snapshot is
// consequently not a cross-counter atomic cut — sends and bytesSent may
// disagree by the handful of operations in flight — which Stats tolerates:
// it feeds logs and expvar, not invariants.
type counters struct {
	enqueued   atomic.Uint64
	sends      atomic.Uint64
	drops      atomic.Uint64
	reconnects atomic.Uint64
	bytesSent  atomic.Uint64
	bytesRecv  atomic.Uint64
	queueDepth atomic.Int64

	mu      sync.Mutex // guards byCause and byPeer only
	byCause map[DropCause]uint64
	byPeer  map[consensus.ProcessID]uint64
}

func (c *counters) enqueue() {
	c.enqueued.Add(1)
	c.queueDepth.Add(1)
}

func (c *counters) dequeue() {
	c.queueDepth.Add(-1)
}

func (c *counters) sent(bytes int) {
	c.sends.Add(1)
	c.bytesSent.Add(uint64(bytes))
}

// unsent turns what sent counted before a write that then failed into a drop.
func (c *counters) unsent(bytes int, cause DropCause, peer consensus.ProcessID) {
	c.sends.Add(^uint64(0))
	c.bytesSent.Add(-uint64(bytes))
	c.drop(cause, peer)
}

func (c *counters) received(bytes int) {
	c.bytesRecv.Add(uint64(bytes))
}

func (c *counters) drop(cause DropCause, peer consensus.ProcessID) {
	c.drops.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byCause == nil {
		c.byCause = make(map[DropCause]uint64)
	}
	c.byCause[cause]++
	if c.byPeer == nil {
		c.byPeer = make(map[consensus.ProcessID]uint64)
	}
	c.byPeer[peer]++
}

func (c *counters) reconnect() {
	c.reconnects.Add(1)
}

func (c *counters) snapshot() Stats {
	s := Stats{
		Enqueued:   c.enqueued.Load(),
		Sends:      c.sends.Load(),
		Drops:      c.drops.Load(),
		Reconnects: c.reconnects.Load(),
		BytesSent:  c.bytesSent.Load(),
		BytesRecv:  c.bytesRecv.Load(),
		QueueDepth: int(c.queueDepth.Load()),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.byCause) > 0 {
		s.DropsByCause = make(map[DropCause]uint64, len(c.byCause))
		for k, v := range c.byCause {
			s.DropsByCause[k] = v
		}
	}
	if len(c.byPeer) > 0 {
		s.DropsByPeer = make(map[consensus.ProcessID]uint64, len(c.byPeer))
		for k, v := range c.byPeer {
			s.DropsByPeer[k] = v
		}
	}
	return s
}
