package smr

import "repro/internal/consensus"

// Wire kinds for replica-level anti-entropy.
const (
	KindStatus         = "smr.status"
	KindCatchupRequest = "smr.catchup_req"
	KindCatchupReply   = "smr.catchup_reply"
)

// Status is the periodic applied-index gossip: each replica announces how
// many log slots it has applied, so lagging peers discover the gap and ask
// for a snapshot.
type Status struct {
	Applied int `json:"applied"`
}

// CatchupRequest asks a peer for state newer than From applied slots.
type CatchupRequest struct {
	From int `json:"from"`
}

// CatchupReply carries a state snapshot: the full store as of Applied
// applied slots, plus decided values for slots at or above Applied that
// the sender knows about but has not yet applied (gaps). Installing it
// replaces the receiver's store, lets it skip every slot below Applied,
// and closes decide gaps the receiver may have missed to message drops.
type CatchupReply struct {
	Applied int                     `json:"applied"`
	Store   map[string]string       `json:"store"`
	Decided map[int]consensus.Value `json:"decided,omitempty"`
	// LeaseHolder/LeaseRemain export the sender's lease view (holder and
	// remaining guard duration in nanoseconds) when leases are enabled: a
	// snapshot jump skips the grant applies, so the receiver imports the
	// guard window instead (see lease.Table.Export). Pointer so replies
	// from lease-free replicas stay byte-identical to the old encoding.
	LeaseHolder *int  `json:"leaseHolder,omitempty"`
	LeaseRemain int64 `json:"leaseRemain,omitempty"`
}

// Kind implements consensus.Message.
func (Status) Kind() string { return KindStatus }

// Kind implements consensus.Message.
func (CatchupRequest) Kind() string { return KindCatchupRequest }

// Kind implements consensus.Message.
func (CatchupReply) Kind() string { return KindCatchupReply }

// registerCatchupMessages is folded into RegisterMessages (replica.go).
func registerCatchupMessages(codec *consensus.Codec) {
	codec.MustRegister(KindStatus, func() consensus.Message { return &Status{} })
	codec.MustRegister(KindCatchupRequest, func() consensus.Message { return &CatchupRequest{} })
	codec.MustRegister(KindCatchupReply, func() consensus.Message { return &CatchupReply{} })
}
