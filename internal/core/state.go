package core

import (
	"fmt"
	"sort"

	"repro/internal/consensus"
)

// State is the durable part of a Node: everything whose loss across a
// restart could violate safety. Volatile bookkeeping (collected fast votes,
// leader state for an in-flight ballot, pending re-announcements) is
// deliberately excluded — losing it can only delay progress, never break
// agreement, because the restarted node re-enters the protocol through a
// fresh slow ballot if needed.
//
// A host that wants crash-recovery semantics (as opposed to the paper's
// crash-stop model) must persist the state after every step that changed it
// and restore before processing further input.
type State struct {
	Mode       Mode
	InitialVal consensus.Value
	Val        consensus.Value
	Proposer   consensus.ProcessID
	Bal        consensus.Ballot
	VBal       consensus.Ballot
	Decided    consensus.Value
	PendingMax consensus.Value
}

// Snapshot exports the node's durable state.
func (n *Node) Snapshot() State {
	return State{
		Mode:       n.mode,
		InitialVal: n.initialVal,
		Val:        n.val,
		Proposer:   n.proposer,
		Bal:        n.bal,
		VBal:       n.vbal,
		Decided:    n.decided,
		PendingMax: n.pendingMax,
	}
}

// AppendState appends s in its binary form (consensus/wire.go): mode,
// proposer and the two ballots, then the four value fields as one reference
// byte each — 0 for ⊥, otherwise the 1-based position of the value among the
// distinct non-⊥ values in order of first use — and those values once each.
// A proposer's InitialVal == Val, an acceptor's Val == Decided: a state
// carries one copy of its command, not three.
func AppendState(dst []byte, s State) []byte {
	dst = append(dst, byte(s.Mode))
	dst = consensus.AppendVarint(dst, int64(s.Proposer))
	dst = consensus.AppendBallot(consensus.AppendBallot(dst, s.Bal), s.VBal)
	var distinct [4]consensus.Value
	n := 0
	for _, v := range [4]consensus.Value{s.InitialVal, s.Val, s.Decided, s.PendingMax} {
		ref := 0
		if !v.IsNone() {
			for ref = 1; ref <= n && distinct[ref-1] != v; ref++ {
			}
			if ref > n {
				distinct[n] = v
				n++
			}
		}
		dst = append(dst, byte(ref))
	}
	for _, v := range distinct[:n] {
		dst = consensus.AppendValue(dst, v)
	}
	return dst
}

// DecodeState reads what AppendState wrote, refusing any other numbering of
// the same values.
func DecodeState(d *consensus.Decoder) State {
	s := State{Mode: Mode(d.Byte()), Proposer: consensus.ProcessID(d.Varint()), Bal: d.Ballot(), VBal: d.Ballot()}
	var refs [4]byte
	n := 0
	for i := range refs {
		switch ref := d.Byte(); {
		case int(ref) <= n:
			refs[i] = ref
		case int(ref) == n+1:
			refs[i] = ref
			n++
		default:
			d.Fail(consensus.ErrNotCanonical)
		}
	}
	distinct := [5]consensus.Value{consensus.None}
	for i := 1; i <= n; i++ {
		distinct[i] = d.Value()
		for _, seen := range distinct[:i] {
			if seen == distinct[i] {
				d.Fail(consensus.ErrNotCanonical)
			}
		}
	}
	s.InitialVal, s.Val = distinct[refs[0]], distinct[refs[1]]
	s.Decided, s.PendingMax = distinct[refs[2]], distinct[refs[3]]
	return s
}

// AppendState appends the node's durable state behind the format-version
// byte: one opaque record of the instance, what a host that journals whole
// protocol instances (rather than smr's per-slot core.State) keeps.
func (n *Node) AppendState(dst []byte) []byte {
	return AppendState(append(dst, consensus.FormatVersion), n.Snapshot())
}

// Restore installs a previously exported state on a fresh node. It must be
// called before Start and fails on a mode mismatch.
func (n *Node) Restore(s State) error {
	if s.Mode != 0 && s.Mode != n.mode {
		return fmt.Errorf("core restore: snapshot mode %s, node mode %s", s.Mode, n.mode)
	}
	n.initialVal = s.InitialVal
	n.val = s.Val
	n.proposer = s.Proposer
	n.bal = s.Bal
	n.vbal = s.VBal
	n.decided = s.Decided
	n.pendingMax = s.PendingMax
	if !n.decided.IsNone() {
		n.rebroadcasts = decidedRebroadcasts
	}
	return nil
}

// RestoreState installs a state AppendState encoded.
func (n *Node) RestoreState(data []byte) error {
	d, err := consensus.NewVersionedDecoder(data, "core state")
	if err != nil {
		return err
	}
	s := DecodeState(&d)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("core restore: %w", err)
	}
	return n.Restore(s)
}

// DumpState returns a canonical dump of the node's FULL state — durable and
// volatile — for the model checker's state deduplication (internal/mc). Two
// nodes with equal dumps behave identically on all future inputs.
func (n *Node) DumpState() string {
	votes := make([]int, 0, len(n.fastVotes))
	for p := range n.fastVotes {
		votes = append(votes, int(p))
	}
	sort.Ints(votes)
	oneBs := make([]string, 0, len(n.lead.oneBs))
	for p, ob := range n.lead.oneBs {
		oneBs = append(oneBs, fmt.Sprintf("%d:%+v", p, ob))
	}
	sort.Strings(oneBs)
	twoBs := make([]int, 0, len(n.lead.twoBs))
	for p := range n.lead.twoBs {
		twoBs = append(twoBs, int(p))
	}
	sort.Ints(twoBs)
	return fmt.Sprintf("iv=%v v=%v pr=%d b=%d vb=%d d=%v pm=%v rb=%d fv=%v|lead{b=%d 1b=%v s2a=%v lv=%v 2b=%v}",
		n.initialVal, n.val, n.proposer, n.bal, n.vbal, n.decided, n.pendingMax, n.rebroadcasts, votes,
		n.lead.ballot, oneBs, n.lead.sentTwoA, n.lead.val, twoBs)
}
