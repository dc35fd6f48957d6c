package shard

import (
	"repro/internal/consensus"
	"repro/internal/omega"
	"repro/internal/transport"
)

// N consensus groups share one transport. Every message a group's replica
// sends is wrapped in a GroupMessage tagging the group id at the frame level
// (groupView); inbound envelopes are unwrapped and handed to the tagged group
// (deliver). Peer processes demux symmetrically — group g on process A only
// ever talks to group g on process B, so each group runs its own slot space
// undisturbed by its neighbors. What the process says for itself (process.go)
// travels beside the envelope, not inside one.

// KindGroup is the wire kind of the group envelope: everything a group
// sends travels in one.
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
// a copy: deliver decodes it before it returns.
func (m *GroupMessage) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Group, m.InnerKind, m.InnerBody = int(d.Varint()), d.Str(), d.Rest()
	return d.Finish()
}

// RegisterMessages registers the three kinds a process speaks on its real
// transport: the group envelope (the groups' inner kinds live in the
// Runtime's private codec), the Ω heartbeat and the applied-index gossip.
func RegisterMessages(codec *consensus.Codec) {
	codec.MustRegister(KindGroup, func() consensus.Message { return &GroupMessage{} })
	codec.MustRegister(KindStatus, func() consensus.Message { return &Status{} })
	omega.RegisterMessages(codec)
}

// deliver unwraps an inbound envelope and hands it to the tagged group.
// Envelopes that carry an out-of-range id or fail inner decode are dropped —
// the transport contract is lossy anyway and protocol timers retransmit.
func (rt *Runtime) deliver(from consensus.ProcessID, gm *GroupMessage) {
	if gm.Group < 0 || gm.Group >= len(rt.groups) {
		return
	}
	inner, err := rt.inner.DecodeBody(gm.InnerKind, gm.InnerBody)
	if err != nil {
		return
	}
	rt.groups[gm.Group].Handle(from, inner)
}

// groupView is the transport.Transport group g's replica is built with. It
// reads the process transport only when it sends (Runtime.send), so it exists
// before BindTransport; the transport stays the Runtime's to close.
type groupView struct {
	rt *Runtime
	g  int
}

// Self implements transport.Transport.
func (v groupView) Self() consensus.ProcessID { return v.rt.cfg.ID }

// Send wraps msg in the group envelope and hands it to the real transport.
func (v groupView) Send(to consensus.ProcessID, msg consensus.Message) error {
	body, _ := consensus.MarshalPooled(msg) // the error is always nil
	return v.rt.send(to, &GroupMessage{Group: v.g, InnerKind: msg.Kind(), InnerBody: body})
}

// Stats implements transport.Transport: the counters are the shared
// transport's — per-process, not per-group, since the wire is shared.
func (v groupView) Stats() transport.Stats { return v.rt.TransportStats() }

// Close is a no-op: a replica never closes its transport.
func (groupView) Close() error { return nil }
