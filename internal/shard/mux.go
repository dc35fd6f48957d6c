package shard

import (
	"encoding/json"
	"errors"
	"strconv"
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
	Group     int             `json:"g"`
	InnerKind string          `json:"innerKind"`
	InnerBody json.RawMessage `json:"innerBody"`
}

// Kind implements consensus.Message.
func (GroupMessage) Kind() string { return KindGroup }

// AppendBody splices the inner body verbatim instead of letting
// encoding/json re-validate the RawMessage — the same single-buffer encode
// smr.SlotMessage uses, and just as hot: every inter-replica message in a
// sharded process takes this wrap on top of the slot wrap. Field names
// stay in lockstep with the struct tags; decoding remains reflective.
func (m GroupMessage) AppendBody(dst []byte) []byte {
	dst = append(dst, `{"g":`...)
	dst = strconv.AppendInt(dst, int64(m.Group), 10)
	dst = append(dst, `,"innerKind":`...)
	dst = strconv.AppendQuote(dst, m.InnerKind)
	dst = append(dst, `,"innerBody":`...)
	if len(m.InnerBody) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, m.InnerBody...)
	}
	return append(dst, '}')
}

// MarshalJSON keeps plain json.Marshal on the same spliced encoding.
func (m GroupMessage) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, len(`{"g":,"innerKind":,"innerBody":}`)+20+len(m.InnerKind)+2+len(m.InnerBody))
	return m.AppendBody(b), nil
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
	body, err := consensus.MarshalPooled(msg)
	if err != nil {
		return err
	}
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
