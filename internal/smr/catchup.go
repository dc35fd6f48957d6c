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

// CatchupRequest asks a peer for state newer than From applied slots.
type CatchupRequest struct {
	From int
}

// CatchupReply carries a state snapshot: the full store as of Applied
// applied slots, plus decided values for slots at or above Applied that
// the sender knows about but has not yet applied (gaps). Installing it
// replaces the receiver's store, lets it skip every slot below Applied,
// and closes decide gaps the receiver may have missed to message drops.
type CatchupReply struct {
	Applied int
	Store   map[string]string
	Decided map[int]consensus.Value
	// LeaseHolder/LeaseRemain export the sender's lease view (holder and
	// remaining guard duration in nanoseconds) when leases are enabled: a
	// snapshot jump skips the grant applies, so the receiver imports the
	// guard window instead (see lease.Table.Export). LeaseHolder is nil,
	// and LeaseRemain 0, on a lease-free replica.
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
// are equal bytes; DecodeBody refuses any other order.
func (m *CatchupReply) AppendBody(dst []byte) []byte {
	dst = consensus.AppendVarint(dst, int64(m.Applied))
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
