package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/deadline"
)

// Mesh is an in-process transport fabric connecting n endpoints through
// buffered channels, one delivery goroutine per endpoint. Messages between
// endpoints are passed by reference; protocols must treat received messages
// as immutable (the same contract the simulator imposes).
type Mesh struct {
	n     int
	depth int

	// fault, when set, decides the fate of every message (see SetFault).
	// atomic.Pointer so the hot Send path reads it without the mesh lock.
	fault atomic.Pointer[FaultFunc]

	mu sync.RWMutex
	// inboxes[i] carries envelopes destined for endpoint i.
	inboxes   []chan meshEnvelope
	endpoints []*meshEndpoint
	closed    bool
}

type meshEnvelope struct {
	from consensus.ProcessID
	msg  consensus.Message
}

// meshInboxDepth bounds each endpoint's queue; sends beyond it drop, which
// the protocols tolerate (timers retransmit). The depth is generous so
// drops only occur under pathological backlog.
const meshInboxDepth = 4096

// NewMesh creates a fabric for n endpoints with the default inbox depth.
func NewMesh(n int) *Mesh { return NewMeshWithDepth(n, meshInboxDepth) }

// NewMeshWithDepth creates a fabric with an explicit per-endpoint inbox
// depth (useful for exercising the drop path in tests).
func NewMeshWithDepth(n, depth int) *Mesh {
	if depth <= 0 {
		depth = meshInboxDepth
	}
	m := &Mesh{n: n, depth: depth, inboxes: make([]chan meshEnvelope, n)}
	for i := range m.inboxes {
		m.inboxes[i] = make(chan meshEnvelope, depth)
	}
	return m
}

// Endpoint attaches handler as endpoint id's receiver and returns its
// transport. Each id must be attached at most once.
func (m *Mesh) Endpoint(id consensus.ProcessID, handler Handler) (Transport, error) {
	if int(id) < 0 || int(id) >= m.n {
		return nil, fmt.Errorf("mesh: endpoint %d out of range [0,%d)", id, m.n)
	}
	ep := &meshEndpoint{mesh: m, id: id, done: make(chan struct{})}
	m.mu.Lock()
	m.endpoints = append(m.endpoints, ep)
	m.mu.Unlock()
	go func() {
		defer close(ep.done)
		for env := range m.inboxes[id] {
			handler(env.from, env.msg)
		}
	}()
	return ep, nil
}

// Stats aggregates every attached endpoint's counters into a fabric view;
// QueueDepth is the live total backlog across all inboxes (including those
// of endpoints that were never attached).
func (m *Mesh) Stats() Stats {
	m.mu.RLock()
	eps := make([]*meshEndpoint, len(m.endpoints))
	copy(eps, m.endpoints)
	m.mu.RUnlock()
	var s Stats
	for _, ep := range eps {
		es := ep.stats.snapshot()
		es.QueueDepth = 0 // endpoint depth is a live inbox view, not a counter
		s = s.Merge(es)
	}
	for _, ch := range m.inboxes {
		s.QueueDepth += len(ch)
	}
	return s
}

// Close shuts the whole fabric down.
func (m *Mesh) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, ch := range m.inboxes {
		close(ch)
	}
}

type meshEndpoint struct {
	mesh  *Mesh
	id    consensus.ProcessID
	done  chan struct{}
	stats counters
}

var _ Transport = (*meshEndpoint)(nil)

// Self implements Transport.
func (e *meshEndpoint) Self() consensus.ProcessID { return e.id }

// Stats implements Transport: this endpoint's outbound counters (drops are
// broken down per destination), with QueueDepth reporting the endpoint's
// own inbound backlog.
func (e *meshEndpoint) Stats() Stats {
	s := e.stats.snapshot()
	s.QueueDepth = len(e.mesh.inboxes[e.id])
	return s
}

// Send implements Transport. Sends to a full inbox drop (counted per
// destination); sends on a closed mesh drop with an error. An installed
// fault injector (Mesh.SetFault) may discard, duplicate, or delay the
// message first.
func (e *meshEndpoint) Send(to consensus.ProcessID, msg consensus.Message) error {
	if int(to) < 0 || int(to) >= e.mesh.n {
		return fmt.Errorf("mesh: send to %d out of range", to)
	}
	copies := 1
	var delay time.Duration
	if fp := e.mesh.fault.Load(); fp != nil {
		v := (*fp)(e.id, to)
		if v.Drop {
			e.stats.drop(DropFault, to)
			return nil
		}
		if v.Duplicate {
			copies = 2
		}
		delay = v.Delay
	}
	if delay > 0 {
		// Delivery (and its accounting) happens when the timer fires; a
		// mesh closed in the meantime turns the copies into closed-drops.
		for i := 0; i < copies; i++ {
			deadline.AfterFunc(delay, func() { e.mesh.deliver(e.id, to, msg, &e.stats) })
		}
		return nil
	}
	e.mesh.mu.RLock()
	defer e.mesh.mu.RUnlock()
	if e.mesh.closed {
		e.stats.drop(DropClosed, to)
		return fmt.Errorf("mesh send to %d: %w", to, ErrClosed)
	}
	for i := 0; i < copies; i++ {
		select {
		case e.mesh.inboxes[to] <- meshEnvelope{from: e.id, msg: msg}:
			e.stats.sent(0) // by-reference delivery: no wire bytes
		default:
			// Inbox full: drop; protocol timers will retransmit. The drop is
			// counted against the destination so soak runs can report loss.
			e.stats.drop(DropQueueFull, to)
		}
	}
	return nil
}

// Close implements Transport. Closing an endpoint does not tear down the
// fabric; use (*Mesh).Close for that.
func (e *meshEndpoint) Close() error { return nil }
