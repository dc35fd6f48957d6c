package smr

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
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
// commands complete. Consensus commands (PUT/DEL/GETL) run on a bounded
// per-connection executor pool so they never stall PING/GET/STATS/INFO;
// replies are flushed in batches by one writer goroutine per connection.
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

// Executor pool bounds for one session connection: sessionExecutors
// consensus commands run concurrently, sessionBacklog more may queue, and
// past that PUT/DEL/GETL frames are refused with "ERR busy" (a definite
// rejection — the command never entered consensus).
const (
	sessionExecutors = 16
	sessionBacklog   = 256
	sessionReplyQ    = 256
)

// serverCounters is the server's internal atomic counter block.
type serverCounters struct {
	legacyConns atomic.Uint64
	sessions    atomic.Uint64
	frames      atomic.Uint64
	tooLong     atomic.Uint64
	readErrors  atomic.Uint64
	busy        atomic.Uint64
	badFrames   atomic.Uint64
}

// ServerCounters is a snapshot of the server's protocol counters.
type ServerCounters struct {
	LegacyConns uint64 // connections served with protocol v1
	Sessions    uint64 // connections upgraded via HELLO
	Frames      uint64 // session frames handled
	TooLong     uint64 // lines over MaxLineBytes answered with ERR
	ReadErrors  uint64 // connections dropped on a read error
	Busy        uint64 // frames refused by a full executor queue
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
// peek.
func (s *Server) serveLegacy(conn net.Conn, br *bufio.Reader, first string) {
	s.ctr.legacyConns.Add(1)
	if first != "" {
		if _, err := fmt.Fprintln(conn, s.handleLine(first)); err != nil {
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
		if _, err := fmt.Fprintln(conn, s.handleLine(line)); err != nil {
			return
		}
	}
}

// taggedCmd is one session frame queued for a pool executor.
type taggedCmd struct {
	tag uint64
	cmd string
}

// serveSession negotiates and runs one protocol-v2 session: a reader
// (this goroutine) demultiplexes frames, consensus commands run on a
// bounded executor pool, and every reply funnels through one writer
// goroutine that flushes in batches.
func (s *Server) serveSession(conn net.Conn, br *bufio.Reader, hello string) {
	replies := make(chan string, sessionReplyQ)
	writerDone := make(chan struct{})
	go s.sessionWriter(conn, replies, writerDone)

	fields := strings.Fields(hello)
	if len(fields) != 2 || fields[1] != "2" {
		// An unknown HELLO variant: refuse the upgrade but keep the
		// connection on the legacy protocol, mirroring what a v1 server
		// would have answered.
		replies <- "ERR unknown command HELLO"
		close(replies)
		<-writerDone
		s.serveLegacy(conn, br, "")
		return
	}
	s.ctr.sessions.Add(1)
	replies <- fmt.Sprintf("OHAI %d %d %d", ProtocolVersion, int(s.backend.ID()), int(s.backend.Leader()))

	slow := make(chan taggedCmd, sessionBacklog)
	var execs sync.WaitGroup
	for i := 0; i < sessionExecutors; i++ {
		execs.Add(1)
		go func() {
			defer execs.Done()
			for c := range slow {
				replies <- fmt.Sprintf("%d %s", c.tag, s.handleLine(c.cmd))
			}
		}()
	}

	for {
		line, err := readLine(br, MaxLineBytes)
		if err == errLineTooLong {
			s.ctr.tooLong.Add(1)
			// The tag sits at the front of the line, so the truncated
			// prefix still addresses the reply.
			if tag, _, perr := parseFrame(line); perr == nil {
				replies <- fmt.Sprintf("%d ERR line too long", tag)
				continue
			}
			replies <- "ERR line too long"
			break // no tag to answer under: the stream is unrecoverable
		}
		if err != nil {
			s.countReadError(conn, err)
			break
		}
		tag, cmd, perr := parseFrame(line)
		if perr != nil {
			s.ctr.badFrames.Add(1)
			replies <- "ERR bad " + perr.Error()
			break // a session peer that loses framing cannot be resynced
		}
		s.ctr.frames.Add(1)
		verb, _, _ := strings.Cut(cmd, " ")
		switch strings.ToUpper(verb) {
		case "PUT", "DEL", "GETL":
			// Consensus-bound: hand to the pool so a slow decide never
			// blocks the cheap commands behind it.
			select {
			case slow <- taggedCmd{tag, cmd}:
			default:
				s.ctr.busy.Add(1)
				replies <- fmt.Sprintf("%d ERR busy: session executor queue full", tag)
			}
		default:
			// PING/GET/STATS/INFO only take the replica lock briefly;
			// answer from the reader.
			replies <- fmt.Sprintf("%d %s", tag, s.handleLine(cmd))
		}
	}
	close(slow)
	execs.Wait()
	close(replies)
	<-writerDone
}

// sessionWriter drains replies to the connection, writing every reply
// already queued before paying one flush — the same batched-flush shape as
// the per-peer transport writers. On a write error it keeps draining so
// producers never block on a dead connection.
func (s *Server) sessionWriter(conn net.Conn, replies <-chan string, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(conn, 32<<10)
	for line := range replies {
		dead := false
	batch:
		for {
			bw.WriteString(line)
			bw.WriteByte('\n')
			select {
			case next, ok := <-replies:
				if !ok {
					break batch
				}
				line = next
			default:
				break batch
			}
		}
		if bw.Flush() != nil {
			dead = true
		}
		if dead {
			for range replies {
			}
			return
		}
	}
	bw.Flush()
}

// handleLine executes one command line and returns the response line.
// Parsing is positional, not field-collapsing: the verb ends at the first
// space, a key at the next, and a PUT value is everything after the
// second space, verbatim — "PUT k a  b" stores "a  b" with both spaces
// (the old strings.Fields parser silently rewrote it to "a b").
func (s *Server) handleLine(line string) string {
	verb, rest, hasArgs := strings.Cut(line, " ")
	if verb == "" {
		return "ERR empty command"
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	// Key-bearing commands route through the backend once the key is
	// parsed: each key lands on the replica of its consensus group.
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
		if v, ok := s.backend.Route(rest).Get(rest); ok {
			return "VAL " + v
		}
		return "NONE"
	case "GETL":
		// Linearizable read: replicates a no-op through consensus before
		// reading, so the reply observes every write that completed before
		// the request (plain GET serves possibly-stale local state).
		if !hasArgs || rest == "" || strings.Contains(rest, " ") {
			return "ERR usage: GETL <key>"
		}
		v, ok, err := s.backend.Route(rest).GetLinearizable(ctx, rest)
		if err != nil {
			return "ERR " + err.Error()
		}
		if ok {
			return "VAL " + v
		}
		return "NONE"
	case "PUT":
		key, val, ok := strings.Cut(rest, " ")
		if !hasArgs || key == "" || !ok {
			return "ERR usage: PUT <key> <value>"
		}
		if err := s.backend.Route(key).Put(ctx, key, val); err != nil {
			return "ERR " + err.Error()
		}
		return "OK"
	case "DEL":
		if !hasArgs || rest == "" || strings.Contains(rest, " ") {
			return "ERR usage: DEL <key>"
		}
		if err := s.backend.Route(rest).Delete(ctx, rest); err != nil {
			return "ERR " + err.Error()
		}
		return "OK"
	default:
		return "ERR unknown command " + verb
	}
}
