package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/deadline"
)

// maxFrame bounds a single wire frame, enforced on both sides: readFrame
// rejects oversized headers and writeFrame refuses to emit a frame the
// receiver would reject (one oversized message must not poison the link).
const maxFrame = 1 << 20

// frameHeaderLen is the length prefix preceding every frame.
const frameHeaderLen = 4

// Sentinel errors for the enqueue-or-drop send path, matchable with
// errors.Is. All Send errors are advisory: the message is dropped and the
// protocol timers retransmit.
var (
	// ErrClosed reports a send on a closed transport.
	ErrClosed = errors.New("transport closed")
	// ErrQueueFull reports that the peer's bounded outbound queue was full.
	ErrQueueFull = errors.New("outbound queue full")
	// ErrOversize reports a frame exceeding maxFrame.
	ErrOversize = errors.New("frame exceeds size limit")
)

// tcpFrame is the wire envelope behind the length prefix: the format-version
// byte, the sender identity, then the codec's self-describing message
// encoding as the rest of the frame.
type tcpFrame struct {
	From consensus.ProcessID
	Msg  []byte
}

// appendFrame appends f's envelope to dst.
func appendFrame(dst []byte, f tcpFrame) []byte {
	dst = append(dst, consensus.FormatVersion)
	return append(consensus.AppendVarint(dst, int64(f.From)), f.Msg...)
}

// decodeFrame reads an envelope; Msg is a window of frame.
func decodeFrame(frame []byte) (tcpFrame, error) {
	d, err := consensus.NewVersionedDecoder(frame, "tcp frame")
	if err != nil {
		return tcpFrame{}, err
	}
	f := tcpFrame{From: consensus.ProcessID(d.Varint()), Msg: d.Rest()}
	return f, d.Finish()
}

// TCPOptions tunes the per-peer send path. The zero value of any field
// selects its default.
type TCPOptions struct {
	// QueueDepth bounds each peer's outbound queue (default 1024): the
	// frames accepted to wait behind the one the peer's writer holds. When
	// that many wait, Send drops the message and returns ErrQueueFull. The
	// queue's memory follows what is queued, not this bound.
	QueueDepth int
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds one framed write; a peer that stops reading
	// stalls its own writer for at most this long (default 2s).
	WriteTimeout time.Duration
	// BackoffMin and BackoffMax bound the exponential reconnect backoff
	// (defaults 25ms and 1s). While the backoff window is open, frames to
	// that peer are dropped immediately rather than queued behind a dial.
	BackoffMin time.Duration
	// BackoffMax caps the backoff; jitter of up to backoff/2 is added.
	BackoffMax time.Duration
	// LinkDelay, when non-nil, returns an artificial one-way latency for
	// frames to each peer (internal/wan derives it from a geo topology).
	// Frames are stamped at enqueue time and the peer's writer goroutine
	// sleeps until stamp+delay before writing, which preserves per-peer
	// FIFO order and lets concurrent frames pipeline — a link with
	// latency, not a link with reduced bandwidth. The function must be
	// safe for concurrent use and is consulted once per Send. Nil (the
	// default) adds no delay.
	LinkDelay func(to consensus.ProcessID) time.Duration
}

// withDefaults fills zero fields with the documented defaults.
func (o TCPOptions) withDefaults() TCPOptions {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 2 * time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 25 * time.Millisecond
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = time.Second
		if o.BackoffMax < o.BackoffMin {
			o.BackoffMax = o.BackoffMin
		}
	}
	return o
}

// TCP is a transport over TCP with 4-byte length-prefixed binary frames.
//
// Each peer has a bounded outbound queue drained by a dedicated writer
// goroutine, so a slow or dead peer can never stall sends to healthy ones:
// Send only enqueues (or drops, when the queue is full) and returns
// immediately. The queue is a slice that grows with what is queued and
// keeps a small buffer once it empties. The writer dials lazily, applies
// write deadlines, and reconnects with capped exponential backoff plus
// jitter; while the link is down its frames are dropped, which the
// protocols tolerate through timer retransmission. Stats exposes
// send/drop/reconnect counters.
type TCP struct {
	self    consensus.ProcessID
	codec   *consensus.Codec
	handler Handler
	opts    TCPOptions

	ln net.Listener
	wg sync.WaitGroup

	// dialCtx is canceled on Close, aborting in-flight dials.
	dialCtx    context.Context
	dialCancel context.CancelFunc

	stats *counters // a pointer: a peer counts an enqueue under its own lock

	mu      sync.Mutex
	addrs   map[consensus.ProcessID]string
	peers   map[consensus.ProcessID]*tcpPeer
	inbound map[net.Conn]struct{}
	closed  bool
}

var _ Transport = (*TCP)(nil)

// tcpQueued is one outbound frame — payload behind its reserved length
// prefix — plus its earliest write instant (zero when no LinkDelay is
// configured).
type tcpQueued struct {
	frame []byte
	due   time.Time
}

// maxSpareFrames caps the capacity of an emptied queue buffer a peer keeps
// for reuse: a burst's larger buffer goes back to the GC once it is written,
// so a link's memory follows its traffic instead of its worst case.
const maxSpareFrames = 64

// tcpPeer is one peer's outbound state: the frame queue its writer drains
// and the link state shared between the writer and SetPeerAddr/Close.
type tcpPeer struct {
	id   consensus.ProcessID
	wake chan struct{} // one slot: each Send signals; a pending wake covers later frames

	mu sync.Mutex
	// queue[head:] are the accepted frames the writer has not taken, in
	// send order; queue[:head] are taken and zeroed.
	queue    []tcpQueued
	head     int
	conn     net.Conn
	closed   bool
	everConn bool          // a dial has succeeded before (next success is a reconnect)
	backoff  time.Duration // next backoff step; 0 means start at BackoffMin
	nextDial time.Time     // dial attempts before this instant drop the frame
}

// NewTCP starts listening on addrs[self] with default options and delivers
// inbound messages to handler. addrs must name every peer, including self.
func NewTCP(
	self consensus.ProcessID,
	addrs map[consensus.ProcessID]string,
	codec *consensus.Codec,
	handler Handler,
) (*TCP, error) {
	return NewTCPWithOptions(self, addrs, codec, handler, TCPOptions{})
}

// NewTCPWithOptions is NewTCP with explicit send-path tuning.
func NewTCPWithOptions(
	self consensus.ProcessID,
	addrs map[consensus.ProcessID]string,
	codec *consensus.Codec,
	handler Handler,
	opts TCPOptions,
) (*TCP, error) {
	addr, ok := addrs[self]
	if !ok {
		return nil, fmt.Errorf("tcp: no address for self (%s)", self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCP{
		self:       self,
		codec:      codec,
		handler:    handler,
		opts:       opts.withDefaults(),
		stats:      new(counters),
		ln:         ln,
		dialCtx:    ctx,
		dialCancel: cancel,
		addrs:      make(map[consensus.ProcessID]string, len(addrs)),
		peers:      make(map[consensus.ProcessID]*tcpPeer),
		inbound:    make(map[net.Conn]struct{}),
	}
	for p, a := range addrs {
		t.addrs[p] = a
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener's actual address (useful with ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetPeerAddr updates the address book entry for a peer, dropping any
// established connection so the writer re-dials the new address promptly.
// Useful when peers bind to ":0" and publish their real addresses after
// startup.
func (t *TCP) SetPeerAddr(p consensus.ProcessID, addr string) {
	t.mu.Lock()
	t.addrs[p] = addr
	pe := t.peers[p]
	t.mu.Unlock()
	if pe != nil {
		pe.resetLink()
	}
}

// Self implements Transport.
func (t *TCP) Self() consensus.ProcessID { return t.self }

// Stats implements Transport.
func (t *TCP) Stats() Stats { return t.stats.snapshot() }

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	// Per-connection scratch: the frame buffer is reused across iterations,
	// and a decoded message's byte fields are windows of it — the handler
	// runs to completion, copying what it keeps, before the next read.
	var buf []byte
	for {
		frame, err := readFrame(conn, &buf)
		if err != nil {
			return
		}
		t.stats.received(frameHeaderLen + len(frame))
		f, err := decodeFrame(frame)
		if err != nil {
			// Not this format version (or no envelope at all): nothing
			// else this peer sends will parse either.
			t.stats.drop(DropBadFrame, consensus.NoProcess)
			return
		}
		if !t.knownPeer(f.From) {
			// A wire-supplied identity that is negative or absent from
			// the address book never reaches protocol code.
			t.stats.drop(DropBadSender, f.From)
			continue
		}
		msg, err := t.codec.Decode(f.Msg)
		if err != nil {
			// An unknown kind or a body its kind refuses: the framing is
			// intact, so stay connected.
			t.stats.drop(DropBadFrame, f.From)
			continue
		}
		t.handler(f.From, msg)
	}
}

// knownPeer reports whether p is a valid sender identity.
func (t *TCP) knownPeer(p consensus.ProcessID) bool {
	if int(p) < 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.addrs[p]
	return ok
}

// Send implements Transport: it encodes msg and enqueues the frame on the
// peer's outbound queue, never blocking on network I/O. A full queue,
// oversized frame, or closed transport drops the message with an advisory
// error; the protocols retransmit on their timers. The frame is built once,
// in a pooled buffer, and copied out at its exact size.
func (t *TCP) Send(to consensus.ProcessID, msg consensus.Message) error {
	// The length prefix is reserved ahead of the payload, so the writer
	// emits header and body in one Write (see writeFrame).
	bp := consensus.Scratch()
	b := append(*bp, make([]byte, frameHeaderLen)...)
	// The envelope with an empty Msg, and the message appended in its place.
	b = t.codec.Append(appendFrame(b, tcpFrame{From: t.self}), msg)
	if size := len(b) - frameHeaderLen; size > maxFrame {
		consensus.Release(bp, b)
		t.stats.drop(DropOversize, to)
		return fmt.Errorf("tcp send to %s: %d-byte frame: %w", to, size, ErrOversize)
	}
	frame := append([]byte(nil), b...)
	consensus.Release(bp, b)
	p, err := t.peer(to)
	if err != nil {
		return err
	}
	q := tcpQueued{frame: frame}
	if t.opts.LinkDelay != nil {
		if d := t.opts.LinkDelay(to); d > 0 {
			q.due = deadline.Now().Add(d)
		}
	}
	if err := p.push(q, t.opts.QueueDepth, t.stats); err != nil {
		cause := DropQueueFull
		if errors.Is(err, ErrClosed) {
			cause = DropClosed
		}
		t.stats.drop(cause, to)
		return fmt.Errorf("tcp send to %s: %w", to, err)
	}
	return nil
}

// peer returns (starting if needed) the outbound queue state for a peer.
func (t *TCP) peer(to consensus.ProcessID) (*tcpPeer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		t.stats.drop(DropClosed, to)
		return nil, fmt.Errorf("tcp send to %s: %w", to, ErrClosed)
	}
	if p, ok := t.peers[to]; ok {
		return p, nil
	}
	if _, ok := t.addrs[to]; !ok {
		return nil, fmt.Errorf("tcp: no address for %s", to)
	}
	p := &tcpPeer{id: to, wake: make(chan struct{}, 1)}
	t.peers[to] = p
	t.wg.Add(1)
	go t.writeLoop(p)
	return p, nil
}

// writeLoop drains one peer's queue until the transport closes: each wake
// it writes frames in order until the queue is empty.
func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	var hold *deadline.Timer // the LinkDelay release, reset for each frame
	if t.opts.LinkDelay != nil {
		hold = deadline.NewTimer(time.Hour)
		hold.Stop()
		defer hold.Stop()
	}
	for {
		select {
		case <-t.dialCtx.Done():
			t.closePeer(p, false)
			return
		case <-p.wake:
		}
		for {
			q, ok := p.pop()
			if !ok {
				break
			}
			t.stats.dequeue()
			if !t.await(hold, q.due) {
				t.closePeer(p, true)
				return
			}
			t.writeOne(p, q.frame)
		}
	}
}

// await holds a frame on hold until its due instant, the LinkDelay shim (a
// zero due time does not wait). Later frames' windows overlap (stamps are
// taken at enqueue), so a busy link still pipelines. It reports false, at
// once, when the transport has closed.
func (t *TCP) await(hold *deadline.Timer, due time.Time) bool {
	wait := due.Sub(deadline.Now())
	if wait <= 0 {
		select {
		case <-t.dialCtx.Done():
			return false
		default:
			return true
		}
	}
	hold.Reset(wait)
	select {
	case <-t.dialCtx.Done():
		return false
	case <-hold.C:
		return true
	}
}

// closePeer ends p's writer. Every frame Send accepted and the writer never
// wrote is a closed drop: the one in the writer's hand (held) and whatever
// is still queued.
func (t *TCP) closePeer(p *tcpPeer, held bool) {
	p.shutdown() // after this no Send appends, so the queue holds the last frames
	p.mu.Lock()
	waiting := len(p.queue) - p.head
	p.queue, p.head = nil, 0
	p.mu.Unlock()
	for range waiting {
		t.stats.dequeue()
	}
	if held {
		waiting++
	}
	for range waiting {
		t.stats.drop(DropClosed, p.id)
	}
}

// writeOne delivers one frame: it ensures a connection (honouring the
// backoff window — frames due before the next allowed dial are dropped
// immediately so the writer never stalls on a dead peer) and performs one
// deadline-bounded framed write. Any failure drops the frame.
func (t *TCP) writeOne(p *tcpPeer, frame []byte) {
	conn := p.current()
	if conn == nil {
		c, ok := t.dialPeer(p)
		if !ok {
			t.stats.drop(DropConn, p.id)
			return
		}
		conn = c
	}
	conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	// Counted before the write: the receiver may handle the frame before
	// writeFrame returns, and a send must never show up after its delivery.
	t.stats.sent(len(frame))
	if err := writeFrame(conn, frame); err != nil {
		p.dropConn(conn)
		t.armBackoff(p)
		t.stats.unsent(len(frame), DropConn, p.id)
	}
}

// dialPeer attempts one connection to p's current address. It fails
// immediately (without blocking) while the backoff window is open.
func (t *TCP) dialPeer(p *tcpPeer) (net.Conn, bool) {
	if !p.dialDue() {
		return nil, false
	}
	t.mu.Lock()
	addr, ok := t.addrs[p.id]
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	d := net.Dialer{Timeout: t.opts.DialTimeout}
	c, err := d.DialContext(t.dialCtx, "tcp", addr)
	if err != nil {
		t.armBackoff(p)
		return nil, false
	}
	reconnected, adopted := p.adopt(c)
	if !adopted {
		c.Close() // transport closed while dialing
		return nil, false
	}
	if reconnected {
		t.stats.reconnect()
	}
	return c, true
}

// armBackoff opens p's backoff window after a dial or write failure,
// doubling the delay up to BackoffMax with up to 50% jitter.
func (t *TCP) armBackoff(p *tcpPeer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.backoff
	if b < t.opts.BackoffMin {
		b = t.opts.BackoffMin
	}
	jitter := time.Duration(rand.Int64N(int64(b)/2 + 1))
	p.nextDial = time.Now().Add(b + jitter)
	p.backoff = 2 * b
	if p.backoff > t.opts.BackoffMax {
		p.backoff = t.opts.BackoffMax
	}
}

// push appends q to the queue and wakes the writer. It refuses with
// ErrClosed once the peer is shut down and with ErrQueueFull while depth
// accepted frames wait behind the writer's.
func (p *tcpPeer) push(q tcpQueued, depth int, stats *counters) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if len(p.queue)-p.head >= depth {
		p.mu.Unlock()
		return ErrQueueFull
	}
	if len(p.queue) == cap(p.queue) && 2*p.head >= len(p.queue) {
		// A queue that never empties would otherwise grow past its taken
		// frames forever: slide the waiting ones to the front instead.
		n := copy(p.queue, p.queue[p.head:])
		clear(p.queue[n:])
		p.queue, p.head = p.queue[:n], 0
	}
	p.queue = append(p.queue, q)
	stats.enqueue()
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default: // a wake is already pending
	}
	return nil
}

// pop hands the writer the oldest queued frame, if any. An emptied queue
// keeps its buffer for the next frames unless a burst grew it past
// maxSpareFrames.
func (p *tcpPeer) pop() (tcpQueued, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.head == len(p.queue) {
		return tcpQueued{}, false
	}
	q := p.queue[p.head]
	p.queue[p.head] = tcpQueued{} // the writer's copy is the frame's last reference
	p.head++
	if p.head == len(p.queue) {
		if cap(p.queue) > maxSpareFrames {
			p.queue = nil
		} else {
			p.queue = p.queue[:0]
		}
		p.head = 0
	}
	return q, true
}

// current returns the established connection, if any.
func (p *tcpPeer) current() net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// dialDue reports whether the backoff window has elapsed.
func (p *tcpPeer) dialDue() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !time.Now().Before(p.nextDial)
}

// adopt installs a freshly dialed connection, reporting whether it is a
// reconnect and whether the peer is still open.
func (p *tcpPeer) adopt(c net.Conn) (reconnected, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, false
	}
	p.conn = c
	reconnected = p.everConn
	p.everConn = true
	p.backoff = 0
	p.nextDial = time.Time{}
	return reconnected, true
}

// dropConn closes and forgets a failed connection (if still current).
func (p *tcpPeer) dropConn(c net.Conn) {
	c.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == c {
		p.conn = nil
	}
}

// resetLink drops the connection and clears the backoff so the writer
// re-dials (a possibly updated address) on the next frame.
func (p *tcpPeer) resetLink() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.backoff = 0
	p.nextDial = time.Time{}
}

// shutdown marks the peer closed and severs its connection, unblocking any
// in-flight write.
func (p *tcpPeer) shutdown() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()
	t.dialCancel()
	for _, p := range peers {
		p.shutdown()
	}
	for _, c := range inbound {
		c.Close()
	}
	err := t.ln.Close()
	t.wg.Wait()
	return err
}

// readFrame reads one length-prefixed frame into *scratch, growing it as
// needed; the returned slice aliases *scratch and is valid until the next
// call.
func readFrame(r io.Reader, scratch *[]byte) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrame {
		return nil, fmt.Errorf("frame of %d bytes: %w", size, ErrOversize)
	}
	if uint32(cap(*scratch)) < size {
		*scratch = make([]byte, size)
	}
	buf := (*scratch)[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// writeFrame emits one length-prefixed frame in a single Write — one
// syscall and one segment on a TCP_NODELAY socket. frame is the payload
// behind frameHeaderLen reserved bytes, which are filled in here. Sizes the
// receiving side's readFrame would reject (which would poison the connection
// there) are refused.
func writeFrame(w io.Writer, frame []byte) error {
	size := len(frame) - frameHeaderLen
	if size > maxFrame {
		return fmt.Errorf("frame of %d bytes: %w", size, ErrOversize)
	}
	binary.BigEndian.PutUint32(frame[:frameHeaderLen], uint32(size))
	_, err := w.Write(frame)
	return err
}
