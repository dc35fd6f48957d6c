package smr

import (
	"sort"

	"repro/internal/consensus"
)

// Wire kinds for replica-level anti-entropy. What sets it off is the host's
// applied-index gossip (shard.Status, Replica.NoteApplied).
const (
	KindCatchupRequest = "smr.catchup_req"
	KindCatchupReply   = "smr.catchup_reply"
)

// partBytes bounds what one state-transfer frame carries — the decided values
// of a log suffix, the keys and values of a snapshot part — at a quarter of
// transport's frame limit. One slot or pair rides whatever its size.
const partBytes = 256 << 10

// CatchupRequest asks a peer for state newer than From applied slots.
type CatchupRequest struct {
	From int
}

// CatchupReply is one bounded frame of state transfer, in one of two forms.
//
// Store == nil, the log suffix: Decided holds the decided values of the slots
// from the requested one up, at most partBytes of them, and Applied is the
// sender's applied index — a receiver still below it asks again at once.
//
// Store != nil, part Part of 0..Last of a snapshot, for a peer below the
// compaction floor: a share of the sender's store as of Applied. The receiver
// assembles one sender's parts of one Applied in order and installs them on
// the last, which also carries the lease view and, while it has room, the
// decided values of slots still open at the sender. The durable snapshot
// holds the same cut as its one part.
type CatchupReply struct {
	Applied    int
	Part, Last int
	Store      map[string]string
	Decided    map[int]consensus.Value
	// LeaseHolder/LeaseRemain export the sender's lease view (holder and
	// remaining guard duration in nanoseconds) when leases are enabled: a
	// snapshot jump skips the grant applies, so the receiver imports the
	// guard window instead (see lease.Table.Export). Nil and 0 on a
	// lease-free replica and on a log suffix.
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
		keys := make([]string, 0, len(m.Store))
		for k := range m.Store {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = consensus.AppendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			dst = consensus.AppendStr(consensus.AppendStr(dst, k), m.Store[k])
		}
	}
	dst = consensus.AppendUvarint(dst, uint64(len(m.Decided)))
	for _, n := range sortedSlots(m.Decided) {
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

// CatchupStats counts this replica's state transfer: log-suffix replies and
// snapshot parts sent to lagging peers, and snapshots installed from them.
type CatchupStats struct {
	SuffixReplies uint64 `json:"suffixReplies"`
	SnapshotParts uint64 `json:"snapshotParts"`
	Installed     uint64 `json:"installed"`
}

// catchupState is the requesting and receiving side of state transfer
// (guarded by Replica.mu). peerApplied is the applied index each peer last
// gossiped. One CatchupRequest is out at a time: asked is whom it went to,
// quiet how many more gossips it silences — its reply clears it, a period's
// worth (one Status a peer) gives up on it. partial holds the parts of the
// snapshot each sender is part-way through.
type catchupState struct {
	peerApplied []int
	asked       consensus.ProcessID
	quiet       int
	partial     map[consensus.ProcessID][]*CatchupReply
	stats       CatchupStats
}

// NoteApplied is the host's applied-index gossip reaching this group: peer
// from has applied that many of the group's slots. The index is the retention
// watermark, and a replica behind it asks for the difference — once per gap,
// whoever gossips: the peer that reported the most, unless a request is out.
func (r *Replica) NoteApplied(from consensus.ProcessID, applied int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cu := &r.cu
	if r.closed || from < 0 || int(from) >= len(cu.peerApplied) {
		return
	}
	if cu.quiet > 0 {
		if cu.quiet--; cu.quiet == 0 {
			cu.peerApplied[cu.asked] = 0 // it never answered: not asked again on its last word
		}
	}
	cu.peerApplied[from] = applied
	r.retireAppliedLocked()
	if applied > r.m.applied && cu.quiet == 0 {
		best := from
		for p, a := range cu.peerApplied {
			if a > cu.peerApplied[best] {
				best = consensus.ProcessID(p)
			}
		}
		r.emitLocked(r.askLocked(best))
	}
}

// askLocked requests what to has applied beyond this replica.
func (r *Replica) askLocked(to consensus.ProcessID) []outbound {
	r.cu.asked, r.cu.quiet = to, r.cfg.N-1
	return []outbound{{to: to, msg: &CatchupRequest{From: r.m.applied}}}
}

// catchupReplyLocked answers a peer that has applied from slots with what it
// misses. From the compaction floor up that is a log suffix, the decided
// values of [from, applied) cut at partBytes: no copy of the store, nothing
// for the receiver to checkpoint. Below it the slots are gone — or the whole
// tail is more bytes than the store, and replaying it would cost the receiver
// more than the jump — and it is sent the store in parts of at most partBytes.
func (r *Replica) catchupReplyLocked(to consensus.ProcessID, from int) (out []outbound) {
	if from >= r.compactFloor && r.retainedBytes <= r.m.bytes() {
		c := &CatchupReply{Applied: r.m.applied, Decided: make(map[int]consensus.Value)}
		for n, size := from, 0; n < r.m.applied; n++ {
			v := r.slots[n].val
			if size += len(v.Data); size > partBytes && n > from {
				break
			}
			c.Decided[n] = v
		}
		r.cu.stats.SuffixReplies++
		return []outbound{{to: to, msg: c}}
	}
	parts := r.cutLocked(partBytes)
	for _, p := range parts {
		out = append(out, outbound{to: to, msg: p})
	}
	r.cu.stats.SnapshotParts += uint64(len(parts))
	return out
}

// adoptLocked takes in one catch-up frame: a snapshot part joins its sender's
// assembly, and the last installs it in the machine if it is ahead, retiring
// every slot below its applied index; decided values are then adopted as
// ordinary decisions, which is all a log suffix is. A suffix that
// moved this replica and leaves it behind its sender still is answered with
// the next request, without waiting for the gossip.
func (r *Replica) adoptLocked(from consensus.ProcessID, m *CatchupReply) []outbound {
	if from == r.cu.asked {
		r.cu.quiet = 0
	}
	jumped := false
	if m.Store != nil {
		parts := r.assembleLocked(from, m)
		if parts == nil {
			return nil
		}
		if jumped = m.Applied > r.m.applied; jumped {
			r.m.install(r.ls.now(), parts...)
			r.retireBelowLocked(m.Applied)
			r.cu.stats.Installed++
		}
	}
	before := r.m.applied
	for _, n := range sortedSlots(m.Decided) {
		if n >= r.m.applied {
			r.decideLocked(r.slotLocked(n), m.Decided[n])
		}
	}
	// Decisions of our own that were waiting on the prefix a jump filled.
	if done := r.applyReadyLocked(); len(done) > 0 {
		r.wakes = append(r.wakes, wakeup{done: done})
	}
	// One checkpoint for what the frame applied, not one every snapEvery
	// slots — and always after a jump: no WAL record backs the store's, and a
	// crash right after it must not roll the replica back.
	if jumped {
		r.writeSnapshotLocked()
	} else {
		r.maybeSnapshotLocked(r.m.applied - before)
	}
	if m.Store == nil && r.m.applied > before && m.Applied > r.m.applied {
		return r.askLocked(from)
	}
	return nil
}

// assembleLocked adds snapshot part m to what from has sent of its cut and
// returns the parts once the last is in, nil before. Parts count up from 0
// under one Applied and Last; a part 0 starts over, anything else out of turn
// drops the assembly, and the next request brings a fresh cut.
func (r *Replica) assembleLocked(from consensus.ProcessID, m *CatchupReply) []*CatchupReply {
	parts := r.cu.partial[from]
	delete(r.cu.partial, from)
	if m.Part == 0 {
		parts = nil
	} else if len(parts) != m.Part || parts[0].Applied != m.Applied || parts[0].Last != m.Last {
		return nil
	}
	if parts = append(parts, m); m.Part < m.Last {
		r.cu.partial[from] = parts
		if from == r.cu.asked {
			r.cu.quiet = r.cfg.N - 1 // still arriving: no second request beside it
		}
		return nil
	}
	return parts
}
