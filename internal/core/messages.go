package core

import (
	"fmt"

	"repro/internal/consensus"
)

// Message kinds, registered with the wire codec via RegisterMessages.
const (
	KindPropose = "core.propose"
	KindOneA    = "core.1a"
	KindOneB    = "core.1b"
	KindTwoA    = "core.2a"
	KindTwoB    = "core.2b"
	KindDecide  = "core.decide"
)

// ProposeMsg is the fast-ballot proposal broadcast at startup or upon a
// propose(v) invocation (Figure 1, line 5).
type ProposeMsg struct {
	Value consensus.Value
}

// OneA asks processes to join slow ballot Ballot (Figure 1, 1A).
type OneA struct {
	Ballot consensus.Ballot
}

// OneB reports a process's state to the leader of slow ballot Ballot
// (Figure 1, 1B). Decided is ⊥ (None) unless the sender has decided.
type OneB struct {
	Ballot   consensus.Ballot
	VBal     consensus.Ballot
	Val      consensus.Value
	Proposer consensus.ProcessID
	Decided  consensus.Value
}

// TwoA carries the leader's proposal for slow ballot Ballot (Figure 1, 2A).
type TwoA struct {
	Ballot consensus.Ballot
	Value  consensus.Value
}

// TwoB is a vote for Value at ballot Ballot, sent to the proposer (fast
// ballot) or the ballot leader (slow ballots) (Figure 1, 2B).
type TwoB struct {
	Ballot consensus.Ballot
	Value  consensus.Value
}

// DecideMsg announces a decided value (Figure 1, Decide).
type DecideMsg struct {
	Value consensus.Value
}

// Kind implements consensus.Message.
func (ProposeMsg) Kind() string { return KindPropose }

// Kind implements consensus.Message.
func (OneA) Kind() string { return KindOneA }

// Kind implements consensus.Message.
func (OneB) Kind() string { return KindOneB }

// Kind implements consensus.Message.
func (TwoA) Kind() string { return KindTwoA }

// Kind implements consensus.Message.
func (TwoB) Kind() string { return KindTwoB }

// Kind implements consensus.Message.
func (DecideMsg) Kind() string { return KindDecide }

// AppendBody and DecodeBody implement consensus.Message: each message's
// fields in declaration order.
func (m *ProposeMsg) AppendBody(dst []byte) []byte { return consensus.AppendValue(dst, m.Value) }
func (m *ProposeMsg) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Value = d.Value()
	return d.Finish()
}

func (m *OneA) AppendBody(dst []byte) []byte { return consensus.AppendBallot(dst, m.Ballot) }
func (m *OneA) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Ballot = d.Ballot()
	return d.Finish()
}

func (m *OneB) AppendBody(dst []byte) []byte {
	dst = consensus.AppendBallot(dst, m.Ballot)
	dst = consensus.AppendBallot(dst, m.VBal)
	dst = consensus.AppendValue(dst, m.Val)
	dst = consensus.AppendVarint(dst, int64(m.Proposer))
	return consensus.AppendValue(dst, m.Decided)
}

func (m *OneB) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Ballot = d.Ballot()
	m.VBal = d.Ballot()
	m.Val = d.Value()
	m.Proposer = consensus.ProcessID(d.Varint())
	m.Decided = d.Value()
	return d.Finish()
}

func (m *TwoA) AppendBody(dst []byte) []byte {
	return consensus.AppendValue(consensus.AppendBallot(dst, m.Ballot), m.Value)
}
func (m *TwoA) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Ballot, m.Value = d.Ballot(), d.Value()
	return d.Finish()
}

func (m *TwoB) AppendBody(dst []byte) []byte {
	return consensus.AppendValue(consensus.AppendBallot(dst, m.Ballot), m.Value)
}
func (m *TwoB) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Ballot, m.Value = d.Ballot(), d.Value()
	return d.Finish()
}

func (m *DecideMsg) AppendBody(dst []byte) []byte { return consensus.AppendValue(dst, m.Value) }
func (m *DecideMsg) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Value = d.Value()
	return d.Finish()
}

// String implements fmt.Stringer.
func (m ProposeMsg) String() string { return fmt.Sprintf("Propose(%s)", m.Value) }

// String implements fmt.Stringer.
func (m OneA) String() string { return fmt.Sprintf("1A(%s)", m.Ballot) }

// String implements fmt.Stringer.
func (m OneB) String() string {
	return fmt.Sprintf("1B(%s,vbal=%s,val=%s,prop=%s,dec=%s)", m.Ballot, m.VBal, m.Val, m.Proposer, m.Decided)
}

// String implements fmt.Stringer.
func (m TwoA) String() string { return fmt.Sprintf("2A(%s,%s)", m.Ballot, m.Value) }

// String implements fmt.Stringer.
func (m TwoB) String() string { return fmt.Sprintf("2B(%s,%s)", m.Ballot, m.Value) }

// String implements fmt.Stringer.
func (m DecideMsg) String() string { return fmt.Sprintf("Decide(%s)", m.Value) }

// RegisterMessages registers all core message kinds with codec.
func RegisterMessages(codec *consensus.Codec) {
	codec.MustRegister(KindPropose, func() consensus.Message { return &ProposeMsg{} })
	codec.MustRegister(KindOneA, func() consensus.Message { return &OneA{} })
	codec.MustRegister(KindOneB, func() consensus.Message { return &OneB{} })
	codec.MustRegister(KindTwoA, func() consensus.Message { return &TwoA{} })
	codec.MustRegister(KindTwoB, func() consensus.Message { return &TwoB{} })
	codec.MustRegister(KindDecide, func() consensus.Message { return &DecideMsg{} })
}
