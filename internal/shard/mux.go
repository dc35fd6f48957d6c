package shard

import (
	"errors"
	"sync"

	"repro/internal/consensus"
	"repro/internal/smr"
	"repro/internal/transport"
)

// The mux multiplexes N consensus groups over one transport. Every message
// a group's replica sends is wrapped in a GroupMessage tagging the group
// id at the frame level; inbound frames are unwrapped and fanned out to
// the tagged group's handler. The real transport therefore carries exactly
// one wire kind, and peer processes demux symmetrically — group g on
// process A only ever talks to group g on process B, so each group runs
// its own Ω detector and slot space undisturbed by its neighbors.

// KindGroup is the wire kind of the group envelope — the only kind that
// travels on a sharded process's real transport.
const KindGroup = "shard.group"

// GroupMessage wraps one group's protocol message with its group id.
type GroupMessage struct {
	Group     int
	InnerKind string
	InnerBody []byte
}

// Kind implements consensus.Message.
func (GroupMessage) Kind() string { return KindGroup }

// AppendBody implements consensus.Message: the group, the inner kind, and the
// inner body as the rest of the bytes.
func (m *GroupMessage) AppendBody(dst []byte) []byte {
	dst = consensus.AppendVarint(dst, int64(m.Group))
	return append(consensus.AppendStr(dst, m.InnerKind), m.InnerBody...)
}

// DecodeBody implements consensus.Message. InnerBody is a window of body, not
// a copy: Mux.Handle decodes it before it returns.
func (m *GroupMessage) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Group, m.InnerKind, m.InnerBody = int(d.Varint()), d.Str(), d.Rest()
	return d.Finish()
}

// RegisterMessages registers the group envelope with codec. A sharded
// process's real transport needs only this kind: the inner kinds live in
// the mux's private codec.
func RegisterMessages(codec *consensus.Codec) {
	codec.MustRegister(KindGroup, func() consensus.Message { return &GroupMessage{} })
}

// errNoTransport reports a send before BindTransport (or after teardown).
var errNoTransport = errors.New("shard: no transport bound")

// Mux fans one transport between the groups: inbound GroupMessages go to
// the tagged group's handler, and each group sends through a view that
// wraps outbound messages with its id. Handlers are a slice indexed by
// group id — fixed size, no iteration-order hazards.
type Mux struct {
	inner *consensus.Codec // decodes inner smr kinds

	mu       sync.Mutex
	tr       transport.Transport
	handlers []transport.Handler
}

// NewMux builds a mux for the given number of groups. Install Handle on
// the real transport, Bind the transport, then View each group.
func NewMux(groups int) *Mux {
	c := consensus.NewCodec()
	smr.RegisterMessages(c)
	return &Mux{inner: c, handlers: make([]transport.Handler, groups)}
}

// Bind installs the real transport the group views send through.
func (m *Mux) Bind(tr transport.Transport) {
	m.mu.Lock()
	m.tr = tr
	m.mu.Unlock()
}

// Handle is the inbound handler for the real transport: it unwraps the
// envelope and delivers to the tagged group. Frames that are not group
// envelopes, carry an out-of-range id, target a group with no handler yet,
// or fail inner decode are dropped — the transport contract is lossy anyway
// and protocol timers retransmit.
func (m *Mux) Handle(from consensus.ProcessID, msg consensus.Message) {
	gm, ok := msg.(*GroupMessage)
	if !ok {
		return
	}
	m.mu.Lock()
	var h transport.Handler
	if gm.Group >= 0 && gm.Group < len(m.handlers) {
		h = m.handlers[gm.Group]
	}
	m.mu.Unlock()
	if h == nil {
		return
	}
	inner, err := m.inner.DecodeBody(gm.InnerKind, gm.InnerBody)
	if err != nil {
		return
	}
	h(from, inner)
}

// View registers group g's inbound handler and returns the transport its
// replica binds: sends are wrapped with the group id. The real transport
// stays the caller's to close.
func (m *Mux) View(g int, h transport.Handler) transport.Transport {
	m.mu.Lock()
	m.handlers[g] = h
	m.mu.Unlock()
	return &groupView{m: m, g: g}
}

// groupView is one group's transport.Transport over the shared mux.
type groupView struct {
	m *Mux
	g int
}

// Self implements transport.Transport.
func (v *groupView) Self() consensus.ProcessID {
	v.m.mu.Lock()
	tr := v.m.tr
	v.m.mu.Unlock()
	if tr == nil {
		return -1
	}
	return tr.Self()
}

// Send wraps msg in the group envelope and hands it to the real transport.
func (v *groupView) Send(to consensus.ProcessID, msg consensus.Message) error {
	v.m.mu.Lock()
	tr := v.m.tr
	v.m.mu.Unlock()
	if tr == nil {
		return errNoTransport
	}
	body, _ := consensus.MarshalPooled(msg) // the error is always nil
	return tr.Send(to, &GroupMessage{Group: v.g, InnerKind: msg.Kind(), InnerBody: body})
}

// Stats implements transport.Transport: the counters are the shared
// transport's — per-process, not per-group, since the wire is shared.
func (v *groupView) Stats() transport.Stats {
	v.m.mu.Lock()
	tr := v.m.tr
	v.m.mu.Unlock()
	if tr == nil {
		return transport.Stats{}
	}
	return tr.Stats()
}

// Close is a no-op: a replica never closes its transport, and the shared
// one belongs to the runtime.
func (v *groupView) Close() error { return nil }
