package slotlog

import (
	"cmp"
	"slices"

	"repro/internal/consensus"
)

// Wire kinds: slot-wrapped consensus traffic, and state transfer, which the
// host's applied-index gossip sets off.
const (
	KindSlot           = "smr.slot"
	KindCatchupRequest = "smr.catchup_req"
	KindCatchupReply   = "smr.catchup_reply"
)

// SlotMessage carries one core-protocol message for one log slot.
type SlotMessage struct {
	Slot      int
	InnerKind string
	InnerBody []byte
}

// Kind implements consensus.Message.
func (SlotMessage) Kind() string { return KindSlot }

// AppendBody implements consensus.Message: the slot, the inner kind, and the
// inner body as the rest of the bytes.
func (m *SlotMessage) AppendBody(dst []byte) []byte {
	dst = consensus.AppendVarint(dst, int64(m.Slot))
	return append(consensus.AppendStr(dst, m.InnerKind), m.InnerBody...)
}

// DecodeBody implements consensus.Message. InnerBody is a window of body, not
// a copy: Step decodes it before it returns.
func (m *SlotMessage) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Slot, m.InnerKind, m.InnerBody = int(d.Varint()), d.Str(), d.Rest()
	return d.Finish()
}

// wrapSlot encodes an inner core message for slot n into its SlotMessage
// wire form. The result is never written again, so one broadcast shares it
// between its destinations.
func wrapSlot(n int, msg consensus.Message) *SlotMessage {
	body, _ := consensus.MarshalPooled(msg) // the error is always nil
	return &SlotMessage{Slot: n, InnerKind: msg.Kind(), InnerBody: body}
}

// partBytes bounds the values one state-transfer frame carries, at a quarter
// of transport's frame limit; one slot or pair rides whatever its size.
const partBytes = 256 << 10

// CatchupRequest asks a peer for state newer than From applied slots.
type CatchupRequest struct {
	From int
}

// CatchupReply is one bounded frame of state transfer, in one of two forms.
//
// Store == nil, the log suffix: Decided holds the decided values of the slots
// from the requested one up, and Applied is the sender's applied index.
// Store != nil, part Part of 0..Last of a snapshot: a share of the sender's
// store as of Applied; the last part also carries the lease view and, while
// it has room, the decided values of slots still open at the sender. The
// durable snapshot holds the same cut as its one part.
type CatchupReply struct {
	Applied    int
	Part, Last int
	Store      map[string]string
	Decided    map[int]consensus.Value
	// LeaseHolder/LeaseRemain export the sender's lease view (holder and
	// remaining guard, ns): a snapshot jump skips the grant applies, so the
	// receiver imports the guard window (lease.Table.Export). A duration,
	// imported at any later instant it only shortens the true window.
	LeaseHolder *int
	LeaseRemain int64
}

// Kind implements consensus.Message.
func (CatchupRequest) Kind() string { return KindCatchupRequest }

// Kind implements consensus.Message.
func (CatchupReply) Kind() string { return KindCatchupReply }

// AppendBody and DecodeBody implement consensus.Message.
func (m *CatchupRequest) AppendBody(dst []byte) []byte {
	return consensus.AppendVarint(dst, int64(m.From))
}
func (m *CatchupRequest) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.From = int(d.Varint())
	return d.Finish()
}

// AppendBody writes the maps in ascending key order, so that equal replies
// are equal bytes; DecodeBody refuses any other order, and a part past Last.
func (m *CatchupReply) AppendBody(dst []byte) []byte {
	dst = consensus.AppendVarint(dst, int64(m.Applied))
	dst = consensus.AppendBool(dst, m.Store != nil)
	if m.Store != nil {
		dst = consensus.AppendUvarint(dst, uint64(m.Part))
		dst = consensus.AppendUvarint(dst, uint64(m.Last))
		dst = consensus.AppendBool(dst, m.LeaseHolder != nil)
		if m.LeaseHolder != nil {
			dst = consensus.AppendVarint(dst, int64(*m.LeaseHolder))
			dst = consensus.AppendVarint(dst, m.LeaseRemain)
		}
		dst = consensus.AppendUvarint(dst, uint64(len(m.Store)))
		for _, k := range sortedKeys(m.Store) {
			dst = consensus.AppendStr(consensus.AppendStr(dst, k), m.Store[k])
		}
	}
	dst = consensus.AppendUvarint(dst, uint64(len(m.Decided)))
	for _, n := range sortedKeys(m.Decided) {
		dst = consensus.AppendValue(consensus.AppendVarint(dst, int64(n)), m.Decided[n])
	}
	return dst
}

func (m *CatchupReply) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Applied = int(d.Varint())
	if d.Bool() {
		if m.Part, m.Last = int(d.Uvarint()), int(d.Uvarint()); m.Part > m.Last {
			d.Fail(consensus.ErrNotCanonical)
		}
		if d.Bool() {
			h := int(d.Varint())
			m.LeaseHolder, m.LeaseRemain = &h, d.Varint()
		}
		// A pair is at least two length prefixes, a decision a slot and a value.
		pairs := d.Count(2)
		m.Store = make(map[string]string, pairs)
		for i, prev := 0, ""; i < pairs; i++ {
			k := d.Str()
			if i > 0 && k <= prev {
				d.Fail(consensus.ErrNotCanonical)
			}
			m.Store[k], prev = d.Str(), k
		}
	}
	if decided := d.Count(10); decided > 0 {
		m.Decided = make(map[int]consensus.Value, decided)
		for i, prev := 0, 0; i < decided; i++ {
			n := int(d.Varint())
			if i > 0 && n <= prev {
				d.Fail(consensus.ErrNotCanonical)
			}
			m.Decided[n], prev = d.Value(), n
		}
	}
	return d.Finish()
}

// sortedKeys returns m's keys ascending: the order every map leaves the log in.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// CatchupStats counts this replica's state transfer: log-suffix replies and
// snapshot parts sent to lagging peers, and snapshots installed from them.
type CatchupStats struct {
	SuffixReplies uint64 `json:"suffixReplies"`
	SnapshotParts uint64 `json:"snapshotParts"`
	Installed     uint64 `json:"installed"`
}

// catchupState is the requesting and receiving side of state transfer.
// peerApplied is the applied index each peer last gossiped. One request is
// out at a time: asked is whom it went to, quiet how many more gossips it
// silences (its reply clears it). partial holds the parts of the snapshot
// each sender is part-way through.
type catchupState struct {
	peerApplied []int
	asked       consensus.ProcessID
	quiet       int
	partial     map[consensus.ProcessID][]*CatchupReply
	stats       CatchupStats
}

// gossip takes in a peer's applied index: the retention watermark, and, for a
// log behind it, a gap to ask for — once per gap, of the peer that reported
// the most, unless a request is out.
func (l *Log) gossip(from consensus.ProcessID, applied int) {
	cu := &l.cu
	if from < 0 || int(from) >= len(cu.peerApplied) {
		return
	}
	if cu.quiet > 0 {
		if cu.quiet--; cu.quiet == 0 {
			cu.peerApplied[cu.asked] = 0 // it never answered: not asked again on its last word
		}
	}
	cu.peerApplied[from] = applied
	l.retireApplied()
	if applied > l.m.applied && cu.quiet == 0 {
		best := from
		for p, a := range cu.peerApplied {
			if a > cu.peerApplied[best] {
				best = consensus.ProcessID(p)
			}
		}
		l.ask(best)
	}
}

// ask requests what to has applied beyond this log.
func (l *Log) ask(to consensus.ProcessID) {
	l.cu.asked, l.cu.quiet = to, l.cfg.N-1
	l.send(to, &CatchupRequest{From: l.m.applied})
}

// catchupReply answers a peer that has applied from slots with what it
// misses: from the compaction floor up, a log suffix, the decided values of
// [from, applied) cut at partBytes; below it, or when the tail weighs more
// than the store, the store in parts of at most partBytes.
func (l *Log) catchupReply(to consensus.ProcessID, from int) {
	if from >= l.floor && l.retained <= l.m.bytes() {
		c := &CatchupReply{Applied: l.m.applied, Decided: make(map[int]consensus.Value)}
		for n, size := from, 0; n < l.m.applied; n++ {
			v := l.slots[n].val
			if size += len(v.Data); size > partBytes && n > from {
				break
			}
			c.Decided[n] = v
		}
		l.cu.stats.SuffixReplies++
		l.send(to, c)
		return
	}
	parts := l.m.cut(partBytes, l.now, l.decidedAbove())
	for _, p := range parts {
		l.send(to, p)
	}
	l.cu.stats.SnapshotParts += uint64(len(parts))
}

// adopt takes in one catch-up frame: a snapshot part joins its sender's
// assembly, and the last installs it if it is ahead, retiring every slot
// below it; decided values are adopted as ordinary decisions, which is all a
// log suffix is. A suffix that leaves this log behind its sender still is
// answered with the next request.
func (l *Log) adopt(from consensus.ProcessID, m *CatchupReply) {
	if from == l.cu.asked {
		l.cu.quiet = 0
	}
	if m.Store != nil {
		parts := l.assemble(from, m)
		if parts == nil {
			return
		}
		if m.Applied > l.m.applied {
			l.m.install(l.now, parts...)
			l.retireBelow(m.Applied)
			l.cu.stats.Installed++
			// No journal record backs the store's jump, and a crash right
			// after it must not roll the log back: checkpoint it now, and
			// let nothing out before the checkpoint is durable.
			l.snapDue, l.snapInstall = true, true
		}
	}
	before := l.m.applied
	for _, n := range sortedKeys(m.Decided) {
		if n >= l.m.applied {
			l.decide(l.slot(n), m.Decided[n])
		}
	}
	// Decisions of our own that were waiting on the prefix a jump filled.
	l.applyReady()
	if m.Store == nil && l.m.applied > before && m.Applied > l.m.applied {
		l.ask(from)
	}
}

// assemble adds snapshot part m to what from has sent of its cut and returns
// the parts once the last is in. A part 0 starts over; one out of turn drops
// the assembly, and the next request brings a fresh cut.
func (l *Log) assemble(from consensus.ProcessID, m *CatchupReply) []*CatchupReply {
	parts := l.cu.partial[from]
	delete(l.cu.partial, from)
	if m.Part == 0 {
		parts = nil
	} else if len(parts) != m.Part || parts[0].Applied != m.Applied || parts[0].Last != m.Last {
		return nil
	}
	if parts = append(parts, m); m.Part < m.Last {
		l.cu.partial[from] = parts
		if from == l.cu.asked {
			l.cu.quiet = l.cfg.N - 1 // still arriving: no second request beside it
		}
		return nil
	}
	return parts
}
