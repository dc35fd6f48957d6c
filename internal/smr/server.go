package smr

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/deadline"
)

// Server exposes a process's replicas to clients over a line-oriented TCP
// protocol:
//
//	PUT <key> <value>     →  OK
//	GET <key>             →  VAL <value>  |  NONE
//	GETL <key>            →  VAL <value>  |  NONE   (linearizable)
//	DEL <key>             →  OK
//	PING                  →  PONG
//	STATS                 →  STATS <transport counters>
//	INFO                  →  INFO <replica/durability summary>
//
// Errors answer "ERR <reason>". Values run verbatim from the second space
// to the end of the line: embedded spaces and tabs round-trip exactly.
// Lines are capped at MaxLineBytes; longer ones get "ERR line too long"
// without losing the connection.
//
// A connection whose first line is "HELLO 2" is upgraded to the
// multiplexed session protocol (docs/SESSIONS.md): the server answers
// "OHAI 2 <replica> <leader>" and thereafter each line is a frame
// "<tag> <command>", answered by "<tag> <reply>" in whatever order
// commands complete. Consensus commands (PUT/DEL/GETL) are answered by
// their completion, so they never stall PING/GET/STATS/INFO; a session is
// a reader and a writer goroutine, and the writer flushes what completed
// together in one write.
// Anything else on the first line is served as legacy protocol v1, one
// command per line, replies in order.
type Server struct {
	backend Backend
	ln      net.Listener
	timeout time.Duration

	ctr serverCounters

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// serverCounters is the server's internal atomic counter block.
type serverCounters struct {
	legacyConns atomic.Uint64
	sessions    atomic.Uint64
	frames      atomic.Uint64
	tooLong     atomic.Uint64
	readErrors  atomic.Uint64
	busy        atomic.Uint64
	badFrames   atomic.Uint64
	replyWrites atomic.Uint64 // session writer flushes
}

// ServerCounters is a snapshot of the server's protocol counters.
type ServerCounters struct {
	LegacyConns uint64 // connections served with protocol v1
	Sessions    uint64 // connections upgraded via HELLO
	Frames      uint64 // session frames handled
	TooLong     uint64 // lines over MaxLineBytes answered with ERR
	ReadErrors  uint64 // connections dropped on a read error
	Busy        uint64 // frames refused at the in-flight bound
	BadFrames   uint64 // session lines with an unparsable tag
}

// Counters returns a snapshot of the server's protocol counters.
func (s *Server) Counters() ServerCounters {
	return ServerCounters{
		LegacyConns: s.ctr.legacyConns.Load(),
		Sessions:    s.ctr.sessions.Load(),
		Frames:      s.ctr.frames.Load(),
		TooLong:     s.ctr.tooLong.Load(),
		ReadErrors:  s.ctr.readErrors.Load(),
		Busy:        s.ctr.busy.Load(),
		BadFrames:   s.ctr.badFrames.Load(),
	}
}

// Backend routes server commands to replicas. The sharded runtime
// (internal/shard) implements it, so one server fronts every consensus
// group in the process, routing each key to its group's replica.
type Backend interface {
	// Route returns the replica hosting key's consensus group. Every key
	// must route somewhere: the server calls it only with non-empty keys.
	Route(key string) *Replica
	// ID and Leader are what the session handshake advertises (the OHAI
	// line): the process behind the server, and its Ω estimate — the
	// client's leader-locality hint.
	ID() consensus.ProcessID
	Leader() consensus.ProcessID
	// StatsLine and InfoLine serve the STATS and INFO commands — the full
	// reply line including the verb (or "ERR ...").
	StatsLine() string
	InfoLine() string
}

// NewBackendServer starts serving clients on addr; commands route through
// b — the seam the sharded runtime plugs N consensus groups into. The wire
// protocol does not show the group count.
func NewBackendServer(b Backend, addr string, opTimeout time.Duration) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("smr server: %w", err)
	}
	if opTimeout <= 0 {
		opTimeout = 30 * time.Second
	}
	s := &Server{backend: b, ln: ln, timeout: opTimeout, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and waits for connection handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// countReadError records a failed connection read; expected teardowns
// (EOF, our own Close) stay quiet, anything else is logged once.
func (s *Server) countReadError(conn net.Conn, err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return
	}
	s.ctr.readErrors.Add(1)
	log.Printf("smr server: read %s: %v", conn.RemoteAddr(), err)
}

func (s *Server) serve(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 16<<10)
	first, err := readLine(br, MaxLineBytes)
	switch {
	case err == errLineTooLong:
		s.ctr.tooLong.Add(1)
		fmt.Fprintln(conn, "ERR line too long")
		s.serveLegacy(conn, br, "")
		return
	case err != nil:
		s.countReadError(conn, err)
		return
	}
	if verb, _, _ := strings.Cut(first, " "); strings.EqualFold(verb, "HELLO") {
		s.serveSession(conn, br, first)
		return
	}
	s.serveLegacy(conn, br, first)
}

// serveLegacy speaks protocol v1: one command per line, replies in order.
// first, when non-empty, is a command already read by the negotiation
// peek. A consensus command is submitted like a session's and waited for
// here, in order.
func (s *Server) serveLegacy(conn net.Conn, br *bufio.Reader, first string) {
	s.ctr.legacyConns.Add(1)
	q := newReplyQueue()
	if first != "" {
		if _, err := fmt.Fprintln(conn, s.legacyReply(q, first)); err != nil {
			return
		}
	}
	for {
		line, err := readLine(br, MaxLineBytes)
		if err == errLineTooLong {
			s.ctr.tooLong.Add(1)
			if _, werr := fmt.Fprintln(conn, "ERR line too long"); werr != nil {
				return
			}
			continue
		}
		if err != nil {
			s.countReadError(conn, err)
			return
		}
		if _, err := fmt.Fprintln(conn, s.legacyReply(q, line)); err != nil {
			return
		}
	}
}

// legacyReply answers one v1 line: a consensus command through q, whose one
// call this goroutine then finishes itself, anything else inline.
func (s *Server) legacyReply(q *replyQueue, line string) string {
	if !consensusVerb(line) {
		return s.handleLine(line)
	}
	q.admit()
	s.start(q, 0, line)
	for {
		<-q.wake
		items, _ := q.take(nil)
		for _, it := range items {
			if reply, ok := it.finish(); ok {
				return reply
			}
		}
	}
}

// serveSession negotiates and runs one protocol-v2 session on two
// goroutines: a reader (this one) demultiplexes frames, and a writer drains
// the connection's reply queue, one flush per wake. Consensus commands
// (PUT/DEL/GETL) are submitted with a completion that queues their reply,
// so a slow decide never blocks the cheap commands behind it; at most
// sessionInflight of them may await their answer, and past that a frame is
// refused with "ERR busy" (a definite rejection — the command never entered
// consensus).
func (s *Server) serveSession(conn net.Conn, br *bufio.Reader, hello string) {
	q := newReplyQueue()
	writerDone := make(chan struct{})
	go s.sessionWriter(conn, q, writerDone)

	fields := strings.Fields(hello)
	if len(fields) != 2 || fields[1] != "2" {
		// An unknown HELLO variant: refuse the upgrade but keep the
		// connection on the legacy protocol, mirroring what a v1 server
		// would have answered.
		q.say(reply{line: "ERR unknown command HELLO"})
		q.close()
		<-writerDone
		s.serveLegacy(conn, br, "")
		return
	}
	s.ctr.sessions.Add(1)
	q.say(reply{line: fmt.Sprintf("OHAI %d %d %d", ProtocolVersion, int(s.backend.ID()), int(s.backend.Leader()))})

	for {
		line, err := readLine(br, MaxLineBytes)
		if err == errLineTooLong {
			s.ctr.tooLong.Add(1)
			// The tag sits at the front of the line, so the truncated
			// prefix still addresses the reply.
			if tag, _, perr := parseFrame(line); perr == nil {
				q.say(reply{tag: tag, tagged: true, line: "ERR line too long"})
				continue
			}
			q.say(reply{line: "ERR line too long"})
			break // no tag to answer under: the stream is unrecoverable
		}
		if err != nil {
			s.countReadError(conn, err)
			break
		}
		tag, cmd, perr := parseFrame(line)
		if perr != nil {
			s.ctr.badFrames.Add(1)
			q.say(reply{line: "ERR bad " + perr.Error()})
			break // a session peer that loses framing cannot be resynced
		}
		s.ctr.frames.Add(1)
		switch {
		case !consensusVerb(cmd):
			// PING/GET/STATS/INFO only take the replica lock briefly;
			// answer from the reader.
			q.say(reply{tag: tag, tagged: true, line: s.handleLine(cmd)})
		case q.admit():
			s.start(q, tag, cmd)
		default:
			s.ctr.busy.Add(1)
			q.say(reply{tag: tag, tagged: true, line: "ERR busy: session in-flight bound reached"})
		}
	}
	q.calls.Wait() // every admitted command answered, or past its deadline
	q.close()
	<-writerDone
}

// sessionWriter writes the connection's replies, one flush per wake: a wake
// comes once a producer has queued everything it has — a chunk's riders
// all their replies — so what they queued together leaves in one write, the
// same shape as the WAL's group commit and the per-peer transport writers.
// After a write error it keeps taking and finishing what is queued — the
// buffered writer keeps the error and writes nothing more — so no producer
// waits on a dead connection.
func (s *Server) sessionWriter(conn net.Conn, q *replyQueue, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(conn, 32<<10)
	var items []reply
	var num [20]byte
	for more := true; more; {
		<-q.wake
		items, more = q.take(items)
		for i, it := range items {
			if line, ok := it.finish(); ok {
				if it.tagged {
					bw.Write(strconv.AppendUint(num[:0], it.tag, 10))
					bw.WriteByte(' ')
				}
				bw.WriteString(line)
				bw.WriteByte('\n')
			}
			items[i] = reply{}
		}
		if bw.Buffered() > 0 {
			s.ctr.replyWrites.Add(1)
			_ = bw.Flush() // bw keeps a failed write's error and writes nothing more
		}
	}
}

// consensusVerb reports whether line is a command that goes through
// consensus: PUT, DEL or GETL.
func consensusVerb(line string) bool {
	verb, _, _ := strings.Cut(line, " ")
	switch strings.ToUpper(verb) {
	case "PUT", "DEL", "GETL":
		return true
	}
	return false
}

// errOpDeadline answers a consensus command still unanswered at the
// server's op timeout; the command may yet commit.
var errOpDeadline = fmt.Errorf("smr batch execute: %w", context.DeadlineExceeded)

// start answers one admitted consensus command line: a usage error or a
// lease hit at once, otherwise by submitting it with a call that answers
// it at its completion or at the op timeout, whichever comes first.
func (s *Server) start(q *replyQueue, tag uint64, line string) {
	c := &call{q: q, tag: tag}
	verb, rest, _ := strings.Cut(line, " ")
	verb = strings.ToUpper(verb)
	key := rest
	if verb == "PUT" {
		var ok bool
		if key, c.cmd.Val, ok = strings.Cut(rest, " "); !ok {
			key = ""
		}
	} else if strings.Contains(rest, " ") {
		key = ""
	}
	if key == "" {
		c.answer(usage[verb])
		return
	}
	c.r = s.backend.Route(key)
	switch verb {
	case "PUT":
		c.cmd.Op, c.cmd.Key = OpPut, key
	case "DEL":
		c.cmd.Op, c.cmd.Key = OpDelete, key
	case "GETL":
		// Linearizable read (Replica.GetLinearizable's tiers): a lease hit
		// is served here, else a no-op through consensus before the read
		// (plain GET serves possibly-stale local state).
		if v, ok, served := c.r.LeaseRead(key); served {
			c.answer(valReply(v, ok))
			return
		}
		c.cmd.Op, c.read = OpNoop, key
	}
	c.timer = deadline.AfterFunc(s.timeout, func() { c.answer("ERR " + errOpDeadline.Error()) })
	c.submit()
}

// usage is each consensus command's usage error.
var usage = map[string]string{
	"PUT":  "ERR usage: PUT <key> <value>",
	"DEL":  "ERR usage: DEL <key>",
	"GETL": "ERR usage: GETL <key>",
}

func valReply(v string, ok bool) string {
	if ok {
		return "VAL " + v
	}
	return "NONE"
}

// call is one admitted consensus command of a connection. Its completion
// and its op deadline race to answer it: the first to settle it queues its
// reply and releases its admission, and whatever comes later writes
// nothing. A GETL whose barrier went through is settled by whoever takes
// its queued reply (reply.finish), because the store read after the barrier
// — and the retry of a fenced one — take Replica.mu, which its completion,
// on the process's IOScheduler consumer, must not.
type call struct {
	q     *replyQueue
	tag   uint64
	r     *Replica
	cmd   Command
	read  string // GETL: the key to read once the barrier is through
	timer *deadline.Timer
	won   atomic.Bool
	err   error // a GETL barrier's outcome, for finish
}

func (c *call) submit() {
	c.r.batch.submit(c.cmd, rider{done: c.complete, wake: c.q.wakeWriter})
}

// complete is c's rider: it runs where c's chunk resolves, so it only
// formats and queues (without waking the writer: the rider's wake does,
// once the whole chunk is queued).
func (c *call) complete(err error) {
	if c.read != "" && (err == nil || errors.Is(err, ErrLeaseFenced)) {
		if !c.won.Load() {
			c.err = err
			c.q.push(reply{tag: c.tag, tagged: true, call: c}, false)
		}
		return
	}
	line := "OK"
	if err != nil {
		line = "ERR " + err.Error()
	}
	if c.settle() {
		c.q.push(reply{tag: c.tag, tagged: true, line: line}, true)
	}
}

// answer settles c with line unless it is answered already, and wakes the
// writer: the op deadline's answer, or one the reader gives at once. It
// leaves the deadline alone (its callback may run before start has stored
// it).
func (c *call) answer(line string) {
	if c.won.CompareAndSwap(false, true) {
		c.q.push(reply{tag: c.tag, tagged: true, line: line}, true)
		c.q.wakeWriter()
	}
}

// settle reports whether the completion's answer is c's first, and then
// stops its deadline.
func (c *call) settle() bool {
	if !c.won.CompareAndSwap(false, true) {
		return false
	}
	c.timer.Stop()
	return true
}

// reply is one entry of a connection's reply queue: a line, under tag when
// tagged — or, when call is set, a GETL's barrier gone through, for finish
// to read and answer.
type reply struct {
	tag    uint64
	tagged bool
	line   string
	call   *call
}

// finish returns what to write for r, if anything: its line, or a GETL's
// read once its barrier completed, unless the deadline answered it first. A
// fenced barrier (see ReadBarrier) is refused toward a holder whose guard
// still stands, or else runs again, and then nothing is written yet.
func (r reply) finish() (string, bool) {
	c := r.call
	if c == nil {
		return r.line, true
	}
	if c.won.Load() {
		return "", false
	}
	var line string
	if c.err != nil {
		c.r.mu.Lock()
		holder, held := c.r.log.Gate(c.r.now())
		c.r.mu.Unlock()
		if !held {
			c.submit()
			return "", false
		}
		line = "ERR " + (&LeaseHeldError{Holder: holder}).Error()
	} else {
		line = valReply(c.r.Get(c.read))
	}
	if !c.settle() {
		return "", false
	}
	c.q.release()
	return line, true
}

// Bounds of one connection: sessionInflight consensus commands may await
// their answer at once — past that a frame is refused "ERR busy" — and the
// reader stops reading while sessionReplyQ of its own replies wait for the
// writer.
const (
	sessionInflight = 16 + 256
	sessionReplyQ   = 256
)

// replyQueue is one connection's replies on their way to its writer: a
// slice under a mutex and a one-slot wake channel, so a producer never
// blocks — completions run on the process's one IOScheduler consumer. What
// completions queue is bounded by the admitted commands (sessionInflight);
// what the reader queues, by sessionReplyQ. The writer takes everything
// queued at each wake, and a producer wakes it once it has queued what it
// has.
type replyQueue struct {
	mu       sync.Mutex
	room     sync.Cond // the reader waits on it for sessionReplyQ
	queue    []reply
	inflight int
	closed   bool // the reader is done: the writer exits at its next take
	wake     chan struct{}
	// calls counts admitted commands not yet answered; the reader waits for
	// it before closing the queue.
	calls sync.WaitGroup
}

func newReplyQueue() *replyQueue {
	q := &replyQueue{wake: make(chan struct{}, 1)}
	q.room.L = &q.mu
	return q
}

// admit counts one consensus command in, or reports that the connection
// has sessionInflight already.
func (q *replyQueue) admit() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inflight >= sessionInflight {
		return false
	}
	q.inflight++
	q.calls.Add(1)
	return true
}

// push queues r; release, for a call's answer, also counts the call out.
// It never blocks.
func (q *replyQueue) push(r reply, release bool) {
	q.mu.Lock()
	q.queue = append(q.queue, r)
	if release {
		q.inflight--
	}
	q.mu.Unlock()
	if release {
		q.calls.Done()
	}
}

// release counts out a call that its writer answered.
func (q *replyQueue) release() {
	q.mu.Lock()
	q.inflight--
	q.mu.Unlock()
	q.calls.Done()
}

// say queues one of the reader's own replies and wakes the writer, first
// waiting while sessionReplyQ replies are queued.
func (q *replyQueue) say(r reply) {
	q.mu.Lock()
	for len(q.queue) >= sessionReplyQ {
		q.room.Wait()
	}
	q.queue = append(q.queue, r)
	q.mu.Unlock()
	q.wakeWriter()
}

func (q *replyQueue) wakeWriter() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// take swaps everything queued for spare, emptied; more is false once the
// queue is closed, and then nothing more is queued.
func (q *replyQueue) take(spare []reply) (items []reply, more bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	items, q.queue = q.queue, spare[:0]
	q.room.Broadcast()
	return items, !q.closed
}

// close tells the writer the reader is done; every call has been answered.
func (q *replyQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wakeWriter()
}

// handleLine answers one command line that does not go through consensus.
// Parsing is positional, not field-collapsing: the verb ends at the first
// space, a key at the next, and a PUT value is everything after the
// second space, verbatim — "PUT k a  b" stores "a  b" with both spaces
// (start parses the consensus commands the same way).
func (s *Server) handleLine(line string) string {
	verb, rest, hasArgs := strings.Cut(line, " ")
	if verb == "" {
		return "ERR empty command"
	}
	// GET routes through the backend once the key is parsed: each key
	// lands on the replica of its consensus group.
	switch strings.ToUpper(verb) {
	case "PING":
		return "PONG"
	case "STATS":
		return s.backend.StatsLine()
	case "INFO":
		return s.backend.InfoLine()
	case "GET":
		if !hasArgs || rest == "" || strings.Contains(rest, " ") {
			return "ERR usage: GET <key>"
		}
		return valReply(s.backend.Route(rest).Get(rest))
	default:
		return "ERR unknown command " + verb
	}
}
