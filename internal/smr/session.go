package smr

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/deadline"
)

// ErrSessionClosed reports an operation attempted on a closed
// SessionClient.
var ErrSessionClosed = errors.New("smr session: client closed")

// errOpTimeout marks an operation that outlived its deadline while in
// flight: the request was (almost certainly) sent, so a write's outcome is
// unknown.
var errOpTimeout = errors.New("smr session: operation timed out")

// SessionOptions configures a SessionClient.
type SessionOptions struct {
	// Timeout bounds each operation, dial included (default 30s).
	Timeout time.Duration
	// Depth caps in-flight operations per connection (default 64).
	// Callers beyond the cap block until a slot frees — the pipelining
	// window.
	Depth int
	// PreferLeader re-sticks the client to the proxy the server names as
	// the current Ω leader (the OHAI hint): fast-path proposals complete
	// in two message delays only when they originate at a replica the
	// fast-side quorum hears directly, so proposer locality is worth one
	// extra dial. Requires addrs to be ordered by replica id.
	PreferLeader bool
}

// SessionClient is the pipelined, multiplexed client: any number of
// goroutines share one TCP connection, each request carries a tag, many
// are in flight at once, and a demux goroutine routes replies (which may
// arrive out of order) back to their callers. A server that refuses the
// HELLO is not one this client can talk to: nothing was sent, so the dial
// fails as a definite rejection and the next address is tried.
//
// Every failed operation matches exactly one of ErrMaybeApplied /
// ErrRejected. On a connection failure, pending operations whose frames
// never reached the socket are re-queued onto the next proxy (they
// provably did not execute); operations already written fail as
// maybe-applied if they mutate, and are retried if they are reads
// (re-executing a read is harmless).
type SessionClient struct {
	addrs []string
	opts  SessionOptions

	mu     sync.Mutex
	cur    int
	sess   *session
	closed bool
	// sticky pins cur against the OHAI Ω-leader redial after a lease-held
	// redirect: the leaseholder hint is fresher than the Ω estimate (the
	// leader and the leaseholder can differ transiently), so following the
	// Ω hint would bounce the client straight back to the replica that
	// just refused it. Cleared when the pinned proxy fails.
	sticky bool
}

// NewSessionClient builds a pipelined client over the given proxy
// addresses (ordered by replica id if PreferLeader is set).
func NewSessionClient(addrs []string, opts SessionOptions) (*SessionClient, error) {
	if len(addrs) == 0 {
		return nil, ErrNoProxies
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.Depth <= 0 {
		opts.Depth = 64
	}
	return &SessionClient{addrs: addrs, opts: opts}, nil
}

// Put replicates a write. A non-nil error matches exactly one of
// ErrMaybeApplied / ErrRejected.
func (c *SessionClient) Put(key, val string) error {
	if err := checkPut(key, val); err != nil {
		return err
	}
	return c.write("PUT " + key + " " + val)
}

// Delete removes a key, with Put's error contract.
func (c *SessionClient) Delete(key string) error {
	if err := checkKey(key); err != nil {
		return &outcomeError{cause: err, maybe: false}
	}
	return c.write("DEL " + key)
}

// Get reads a key from the proxy's local applied state; the reply can lag
// concurrent writes. Use GetLinearizable for a read that observes every
// completed write.
func (c *SessionClient) Get(key string) (string, error) {
	if err := checkKey(key); err != nil {
		return "", &outcomeError{cause: err, maybe: false}
	}
	return c.get("GET " + key)
}

// GetLinearizable reads a key with linearizable semantics (a lease hit at
// the server, or a no-op replicated through consensus before reading).
func (c *SessionClient) GetLinearizable(key string) (string, error) {
	if err := checkKey(key); err != nil {
		return "", &outcomeError{cause: err, maybe: false}
	}
	return c.get("GETL " + key)
}

// Ping round-trips a no-op through the session.
func (c *SessionClient) Ping() error {
	reply, _, err := c.call("PING", false)
	if err != nil {
		return err
	}
	if reply != "PONG" {
		return &outcomeError{cause: fmt.Errorf("smr session: %s", reply), maybe: false}
	}
	return nil
}

// Stats fetches the proxy replica's transport counters line. Failures
// carry the same ErrMaybeApplied/ErrRejected verdict as every other
// operation (STATS never mutates, so its verdict is informational, but
// the taxonomy invariant holds for all client errors).
func (c *SessionClient) Stats() (string, error) {
	return c.prefixed("STATS")
}

// Info fetches the proxy replica's operational summary line, with Stats's
// error contract.
func (c *SessionClient) Info() (string, error) {
	return c.prefixed("INFO")
}

func (c *SessionClient) prefixed(cmd string) (string, error) {
	reply, sent, err := c.call(cmd, false)
	if err != nil {
		return "", &outcomeError{cause: err, maybe: sent}
	}
	if !strings.HasPrefix(reply, cmd+" ") {
		return "", &outcomeError{
			cause: fmt.Errorf("smr session: %s", reply),
			maybe: ambiguousReply(reply),
		}
	}
	return strings.TrimPrefix(reply, cmd+" "), nil
}

func (c *SessionClient) write(cmd string) error {
	reply, sent, err := c.call(cmd, true)
	if err != nil {
		return &outcomeError{cause: err, maybe: sent}
	}
	if reply != "OK" {
		return &outcomeError{
			cause: fmt.Errorf("smr session: %s", reply),
			maybe: ambiguousReply(reply),
		}
	}
	return nil
}

func (c *SessionClient) get(cmd string) (string, error) {
	reply, sent, err := c.call(cmd, false)
	if err != nil {
		return "", &outcomeError{cause: err, maybe: sent}
	}
	switch {
	case strings.HasPrefix(reply, "VAL "):
		return strings.TrimPrefix(reply, "VAL "), nil
	case reply == "NONE":
		return "", ErrNotFound
	default:
		return "", &outcomeError{
			cause: fmt.Errorf("smr session: %s", reply),
			maybe: ambiguousReply(reply),
		}
	}
}

// Proxy returns the address of the proxy currently in use.
func (c *SessionClient) Proxy() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addrs[c.cur]
}

// LeaderHint returns the replica id the current session's server reported
// as Ω leader, or -1 when not yet connected.
func (c *SessionClient) LeaderHint() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess == nil {
		return -1
	}
	return c.sess.leader
}

// Close tears down the connection; in-flight operations fail with their
// usual verdicts.
func (c *SessionClient) Close() error {
	c.mu.Lock()
	sess := c.sess
	c.sess = nil
	c.closed = true
	c.mu.Unlock()
	if sess != nil {
		sess.teardown(ErrSessionClosed)
	}
	return nil
}

// call runs one command with failover: each proxy is tried at most once
// per operation. A mutating command stops retrying the moment one attempt
// may have reached a server (a re-queued write would be a second proposal
// and could apply twice); reads retry on every failure.
//
// A "lease held by replica N" reply is a definite pre-propose refusal
// naming the replica that can serve: with PreferLeader set the client
// re-sticks to it and retries (safe even for writes — nothing entered
// consensus), which is what moves GETL readers onto the leaseholder.
func (c *SessionClient) call(cmd string, mutating bool) (reply string, sent bool, err error) {
	var lastErr error = ErrNoProxies
	for attempt := 0; attempt < len(c.addrs); attempt++ {
		sess, err := c.session()
		if err != nil {
			// session() already rotated through every address.
			return "", sent, err
		}
		res := sess.do(cmd, c.opts.Timeout)
		if res.err == nil {
			if h, held := leaseHolderHint(res.reply); held &&
				c.opts.PreferLeader && h < len(c.addrs) && attempt+1 < len(c.addrs) {
				lastErr = fmt.Errorf("smr session: %s", res.reply)
				c.redirect(sess, h)
				continue
			}
			return res.reply, true, nil
		}
		lastErr = res.err
		if res.sent {
			sent = true
		}
		// A failed or timed-out session is dead to us: drop it so the
		// next attempt dials the next proxy.
		c.drop(sess, res.err)
		if res.sent && mutating {
			break
		}
	}
	return "", sent, fmt.Errorf("smr session: proxies failed: %w", lastErr)
}

// session returns the live session, dialing (and negotiating) one if
// needed. Dial failures rotate to the next proxy; with PreferLeader set,
// a successful handshake whose OHAI names a different replica as leader
// triggers one redial toward it.
func (c *SessionClient) session() (*session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrSessionClosed
	}
	if c.sess != nil && c.sess.alive() {
		return c.sess, nil
	}
	c.sess = nil
	var lastErr error = ErrNoProxies
	for i := 0; i < len(c.addrs); i++ {
		sess, err := dialSession(c.addrs[c.cur], c.opts.Timeout, c.opts.Depth)
		if err != nil {
			lastErr = err
			c.cur = (c.cur + 1) % len(c.addrs)
			continue
		}
		if c.opts.PreferLeader && !c.sticky &&
			sess.leader != sess.replicaID &&
			sess.leader >= 0 && sess.leader < len(c.addrs) && sess.leader != c.cur {
			if redir, err := dialSession(c.addrs[sess.leader], c.opts.Timeout, c.opts.Depth); err == nil {
				hinted := sess.leader
				sess.teardown(errors.New("smr session: redirected to leader"))
				c.cur = hinted
				sess = redir
			}
			// The hinted leader being unreachable is fine: stay on the
			// proxy that answered.
		}
		c.sess = sess
		return sess, nil
	}
	return nil, fmt.Errorf("smr session: no proxy reachable: %w", lastErr)
}

// leaseHolderHint parses the leaseholder id out of a lease-held refusal
// ("ERR lease held by replica N", possibly with trailing context).
func leaseHolderHint(reply string) (int, bool) {
	if !strings.HasPrefix(reply, leaseHeldPrefix) {
		return -1, false
	}
	digits, _, _ := strings.Cut(strings.TrimPrefix(reply, leaseHeldPrefix), " ")
	h, err := strconv.Atoi(digits)
	if err != nil || h < 0 {
		return -1, false
	}
	return h, true
}

// redirect re-sticks the client to the replica a lease-held refusal named
// and discards the session that refused, so the next attempt dials the
// leaseholder (requires addrs ordered by replica id, as PreferLeader
// documents). Teardown runs outside the lock, like drop.
func (c *SessionClient) redirect(sess *session, holder int) {
	c.mu.Lock()
	if c.sess == sess {
		c.sess = nil
		c.cur = holder
		c.sticky = true
	}
	c.mu.Unlock()
	sess.teardown(errors.New("smr session: redirected to leaseholder"))
}

// drop discards sess if it is still the client's current session and
// rotates to the next proxy.
func (c *SessionClient) drop(sess *session, cause error) {
	c.mu.Lock()
	if c.sess == sess {
		c.sess = nil
		c.cur = (c.cur + 1) % len(c.addrs)
		c.sticky = false // the pinned leaseholder failed; hints are stale
	}
	c.mu.Unlock()
	sess.teardown(cause)
}

// opResult is the raw outcome of one session operation, before the
// client-level error taxonomy is applied.
type opResult struct {
	reply string
	err   error
	sent  bool // the frame was (at least partially) written to the socket
}

// sessionOp is one in-flight tagged request.
type sessionOp struct {
	tag uint64
	cmd string
	// sent is guarded by session.mu: the writer sets it immediately
	// before writing, so on teardown every op knows whether its bytes may
	// be on the wire.
	sent bool
	// ch receives the op's result exactly once — from the demux loop, or
	// from teardown. An abandoned (timed-out) op is deregistered instead
	// and never receives.
	ch chan opResult
}

// session is one negotiated connection: a writer goroutine drains the
// send queue with batched flushes, a demux goroutine routes tagged
// replies to waiting ops, and a depth semaphore bounds what is in flight.
type session struct {
	conn      net.Conn
	replicaID int
	leader    int

	sendq chan *sessionOp
	sem   chan struct{}
	done  chan struct{}

	mu      sync.Mutex
	pending map[uint64]*sessionOp
	nextTag uint64
	failed  error
}

// dialSession connects, negotiates HELLO/OHAI, and starts the session
// goroutines. Any other answer to the HELLO fails the dial: no request has
// been sent, so the caller moves on to its next address.
func dialSession(addr string, timeout time.Duration, depth int) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := fmt.Fprintf(conn, "HELLO %d\n", ProtocolVersion); err != nil {
		conn.Close()
		return nil, err
	}
	rd := bufio.NewReaderSize(conn, 16<<10)
	reply, err := readLine(rd, MaxLineBytes)
	if err != nil {
		conn.Close()
		return nil, err
	}
	f := strings.Fields(reply)
	if len(f) != 4 || f[0] != "OHAI" {
		conn.Close()
		return nil, fmt.Errorf("smr session: HELLO %d refused: %q", ProtocolVersion, clip(reply))
	}
	s := &session{
		conn:    conn,
		sendq:   make(chan *sessionOp, depth),
		sem:     make(chan struct{}, depth),
		done:    make(chan struct{}),
		pending: make(map[uint64]*sessionOp),
	}
	s.replicaID, _ = strconv.Atoi(f[2])
	s.leader, _ = strconv.Atoi(f[3])
	conn.SetDeadline(time.Time{})
	go s.writeLoop()
	go s.readLoop(rd)
	return s, nil
}

func (s *session) alive() bool {
	select {
	case <-s.done:
		return false
	default:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.failed == nil
	}
}

// do runs one command on the session and waits for its result.
func (s *session) do(cmd string, timeout time.Duration) opResult {
	op, err := s.begin(cmd)
	if err != nil {
		return opResult{err: err}
	}
	return s.await(op, timeout)
}

// begin registers and enqueues one tagged request, blocking while the
// pipeline window (depth) is full. It fails only before anything is sent,
// so a begin error always means "safe to retry elsewhere".
func (s *session) begin(cmd string) (*sessionOp, error) {
	select {
	case s.sem <- struct{}{}:
	case <-s.done:
		return nil, s.failure()
	}
	op := &sessionOp{cmd: cmd, ch: make(chan opResult, 1)}
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		<-s.sem
		return nil, err
	}
	s.nextTag++
	op.tag = s.nextTag
	s.pending[op.tag] = op
	s.mu.Unlock()
	select {
	case s.sendq <- op:
	case <-s.done:
		// teardown owns the op now (it was registered) and will resolve
		// it through op.ch; fall through to await in the caller.
	}
	return op, nil
}

// await blocks until op resolves or times out. A timeout abandons the op
// (a late reply is discarded by the demux loop).
func (s *session) await(op *sessionOp, timeout time.Duration) opResult {
	timer := deadline.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-op.ch:
		return res
	case <-timer.C:
		return s.abandon(op)
	}
}

// abandon deregisters a timed-out op. If the demux resolved it
// concurrently, that result wins.
func (s *session) abandon(op *sessionOp) opResult {
	s.mu.Lock()
	if _, still := s.pending[op.tag]; still {
		delete(s.pending, op.tag)
		sent := op.sent
		s.mu.Unlock()
		<-s.sem
		return opResult{err: errOpTimeout, sent: sent}
	}
	s.mu.Unlock()
	return <-op.ch
}

// failure returns the session's terminal error.
func (s *session) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	return errors.New("smr session: connection closed")
}

// teardown fails the session once: every still-pending op resolves with
// err and its recorded sent flag, so callers can re-queue what provably
// never left this process and report the correct verdict for what did.
func (s *session) teardown(err error) {
	s.mu.Lock()
	if s.failed != nil {
		s.mu.Unlock()
		return
	}
	s.failed = err
	type victim struct {
		op   *sessionOp
		sent bool
	}
	victims := make([]victim, 0, len(s.pending))
	for tag, op := range s.pending {
		victims = append(victims, victim{op, op.sent})
		delete(s.pending, tag)
	}
	s.mu.Unlock()
	close(s.done)
	s.conn.Close()
	for _, v := range victims {
		<-s.sem
		v.op.ch <- opResult{err: err, sent: v.sent}
	}
}

// writeLoop drains the send queue onto the socket, marking each op sent
// under the lock immediately before its bytes go out, and batching: every
// frame already queued is written before one flush is paid.
//
// Woken, it yields once before it drains. The caller that woke it is often
// the first of a cohort readLoop released together, whose others are
// runnable behind it; the runtime runs the goroutine a caller readies next
// (runnext), so without the yield the writer would flush that one frame and
// be woken again by each of the others. The yield only defers the drain by
// one pass over what is runnable — it returns at once when nothing is — and
// changes neither what is written nor its order.
func (s *session) writeLoop() {
	bw := bufio.NewWriterSize(s.conn, 32<<10)
	var frame []byte
	for {
		var op *sessionOp
		select {
		case op = <-s.sendq:
		case <-s.done:
			return
		}
		runtime.Gosched()
		for {
			s.mu.Lock()
			_, live := s.pending[op.tag]
			if live {
				op.sent = true
			}
			s.mu.Unlock()
			if live {
				frame = appendFrame(frame[:0], op.tag, op.cmd)
				if _, err := bw.Write(frame); err != nil {
					s.teardown(err)
					return
				}
			}
			// Anything else already queued joins this flush.
			select {
			case next := <-s.sendq:
				op = next
				continue
			case <-s.done:
				return
			default:
			}
			break
		}
		if err := bw.Flush(); err != nil {
			s.teardown(err)
			return
		}
	}
}

// readLoop demultiplexes tagged replies to their waiting ops. Replies for
// abandoned tags are dropped; an unparsable line means the stream lost
// framing and kills the session.
func (s *session) readLoop(rd *bufio.Reader) {
	for {
		line, err := readLine(rd, MaxLineBytes)
		if err != nil {
			s.teardown(err)
			return
		}
		tag, payload, perr := parseFrame(line)
		if perr != nil {
			s.teardown(fmt.Errorf("smr session: bad reply %s", perr))
			return
		}
		s.mu.Lock()
		op := s.pending[tag]
		delete(s.pending, tag)
		s.mu.Unlock()
		if op == nil {
			continue // late reply for a timed-out op
		}
		<-s.sem
		op.ch <- opResult{reply: payload, sent: true}
	}
}

// checkPut validates a PUT's key and value client-side, wrapping
// violations as definite rejections.
func checkPut(key, val string) error {
	if err := checkKey(key); err != nil {
		return &outcomeError{cause: err, maybe: false}
	}
	if err := checkValue(val); err != nil {
		return &outcomeError{cause: err, maybe: false}
	}
	return nil
}
