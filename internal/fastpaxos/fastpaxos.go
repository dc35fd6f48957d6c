// Package fastpaxos implements Fast Paxos (Lamport 2006a) as a baseline,
// specialized to the single fast ballot 0 followed by classic slow ballots.
//
// Differences from the paper's core protocol (internal/core) that make Fast
// Paxos require max{2e+f+1, 2f+1} processes rather than the paper's tighter
// bounds:
//
//   - The fast path is not value-ordered: an acceptor votes for the first
//     Propose it receives, whatever the value.
//   - Recovery does not exclude the votes of proposers that joined the new
//     ballot: from n−f 1B reports with highest vote ballot 0, the
//     coordinator picks the value with at least n−e−f votes in Q if one
//     exists (Lamport's O4 rule); at n ≥ 2e+f+1 at most one value can reach
//     that threshold.
//
// A proposer that gathers ballot-0 votes from n−e acceptors (counting
// itself) decides after two message delays, so the protocol is e-two-step in
// the paper's sense whenever n ≥ max{2e+f+1, 2f+1}. Below that count the
// recovery rule can pick a value different from a fast-decided one — the T1
// frontier bench demonstrates exactly this.
//
// Flexible quorums (Fast Flexible Paxos, Howard et al.): when the config
// carries FastSize/RecoverySize overrides, the fast path waits for
// FastQuorum votes and recovery collects RecoveryQuorum 1B reports, with
// the O4 vote threshold generalized to FastOverlap = recovery+fast−n.
// quorum.NewFlex guarantees recovery+2·fast > 2n, which keeps the O4 pick
// unique; the price is leader-change liveness (recovery needs RecoverySize
// live processes instead of n−f). With zero overrides every formula
// reduces to the classical one.
package fastpaxos

import (
	"fmt"
	"sort"

	"repro/internal/consensus"
	"repro/internal/quorum"
)

// Message kinds for the wire codec.
const (
	KindPropose = "fastpaxos.propose"
	KindOneA    = "fastpaxos.1a"
	KindOneB    = "fastpaxos.1b"
	KindTwoA    = "fastpaxos.2a"
	KindTwoB    = "fastpaxos.2b"
	KindDecide  = "fastpaxos.decide"
)

// ProposeMsg is the fast-ballot proposal (Lamport's "any value" 2A at the
// fast ballot, initiated directly by the proposer).
type ProposeMsg struct {
	Value consensus.Value
}

// OneA asks acceptors to join a slow ballot.
type OneA struct {
	Ballot consensus.Ballot
}

// OneB reports acceptor state to a slow-ballot coordinator.
type OneB struct {
	Ballot consensus.Ballot
	VBal   consensus.Ballot
	Val    consensus.Value
}

// TwoA carries the coordinator's slow-ballot proposal.
type TwoA struct {
	Ballot consensus.Ballot
	Value  consensus.Value
}

// TwoB is a vote at a ballot.
type TwoB struct {
	Ballot consensus.Ballot
	Value  consensus.Value
}

// DecideMsg announces the decision.
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
	dst = consensus.AppendBallot(consensus.AppendBallot(dst, m.Ballot), m.VBal)
	return consensus.AppendValue(dst, m.Val)
}

func (m *OneB) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Ballot, m.VBal, m.Val = d.Ballot(), d.Ballot(), d.Value()
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

// RegisterMessages registers all fastpaxos message kinds with codec.
func RegisterMessages(codec *consensus.Codec) {
	codec.MustRegister(KindPropose, func() consensus.Message { return &ProposeMsg{} })
	codec.MustRegister(KindOneA, func() consensus.Message { return &OneA{} })
	codec.MustRegister(KindOneB, func() consensus.Message { return &OneB{} })
	codec.MustRegister(KindTwoA, func() consensus.Message { return &TwoA{} })
	codec.MustRegister(KindTwoB, func() consensus.Message { return &TwoB{} })
	codec.MustRegister(KindDecide, func() consensus.Message { return &DecideMsg{} })
}

// TimerNewBallot paces recovery exactly like the core protocol (2Δ then 5Δ).
const TimerNewBallot consensus.TimerID = "fastpaxos.new_ballot"

// Node is one Fast Paxos process.
type Node struct {
	cfg   consensus.Config
	omega consensus.LeaderOracle

	initialVal consensus.Value
	val        consensus.Value
	bal        consensus.Ballot
	vbal       consensus.Ballot
	decided    consensus.Value
	pendingMax consensus.Value

	fastVotes   map[consensus.ProcessID]struct{}
	fastDecided bool
	lead        leaderState
}

type leaderState struct {
	ballot   consensus.Ballot
	oneBs    map[consensus.ProcessID]OneB
	sentTwoA bool
	val      consensus.Value
	twoBs    map[consensus.ProcessID]struct{}
}

var _ consensus.Protocol = (*Node)(nil)

// New builds a Fast Paxos node, checking Lamport's bound
// n ≥ max{2e+f+1, 2f+1}. Flexible configurations (FastSize/RecoverySize
// overrides) are instead checked against the Fast Flexible Paxos
// intersection requirements, which cfg.Validate delegates to
// quorum.CheckFlex — Lamport's count no longer applies because the
// deployment explicitly trades recovery resilience for the smaller fast
// quorum.
func New(cfg consensus.Config, omega consensus.LeaderOracle) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("fastpaxos: %w", err)
	}
	if !cfg.Flexible() {
		if err := quorum.Check(quorum.Lamport, cfg.N, cfg.F, cfg.E); err != nil {
			return nil, fmt.Errorf("fastpaxos: %w", err)
		}
	}
	return NewUnchecked(cfg, omega), nil
}

// NewUnchecked builds a Fast Paxos node without the bound check (for
// below-bound experiments).
func NewUnchecked(cfg consensus.Config, omega consensus.LeaderOracle) *Node {
	return &Node{
		cfg:        cfg,
		omega:      omega,
		initialVal: consensus.None,
		val:        consensus.None,
		decided:    consensus.None,
		pendingMax: consensus.None,
		fastVotes:  make(map[consensus.ProcessID]struct{}),
	}
}

// ID implements consensus.Protocol.
func (n *Node) ID() consensus.ProcessID { return n.cfg.ID }

// Decision implements consensus.Protocol.
func (n *Node) Decision() (consensus.Value, bool) {
	if n.decided.IsNone() {
		return consensus.None, false
	}
	return n.decided, true
}

// DecidedFast reports whether this node's decision was reached on the
// two-step fast path (a full fast quorum of ballot-0 votes for its own
// proposal), as opposed to a slow ballot or a DecideMsg learned from
// another node. The WAN bench uses it to compute slow-path rates.
func (n *Node) DecidedFast() (fast, decided bool) {
	return n.fastDecided, !n.decided.IsNone()
}

// Start implements consensus.Protocol.
func (n *Node) Start() []consensus.Effect {
	return []consensus.Effect{
		consensus.StartTimer{Timer: TimerNewBallot, After: 2 * n.cfg.Delta},
	}
}

// Propose implements consensus.Protocol.
func (n *Node) Propose(v consensus.Value) []consensus.Effect {
	if v.IsNone() || !n.initialVal.IsNone() || !n.val.IsNone() {
		return nil
	}
	n.initialVal = v
	n.pendingMax = consensus.MaxValue(n.pendingMax, v)
	// Unlike the paper's value-ordered protocol, the proposal goes to Π
	// including ourselves: our own acceptor votes for whichever proposal
	// it receives first, ours included. (In the paper's protocol the
	// proposer's support is counted implicitly — |P ∪ {p_i}| — which its
	// value-ordering makes safe; Fast Paxos's unordered acceptors must
	// really vote.)
	return []consensus.Effect{
		consensus.Broadcast{Msg: &ProposeMsg{Value: v}, Self: true},
	}
}

// Deliver implements consensus.Protocol.
func (n *Node) Deliver(from consensus.ProcessID, m consensus.Message) []consensus.Effect {
	switch msg := m.(type) {
	case *ProposeMsg:
		return n.onPropose(from, msg)
	case *TwoB:
		return n.onTwoB(from, msg)
	case *DecideMsg:
		return n.onDecide(msg.Value)
	case *OneA:
		return n.onOneA(from, msg)
	case *OneB:
		return n.onOneB(from, msg)
	case *TwoA:
		return n.onTwoA(from, msg)
	default:
		return nil
	}
}

// onPropose votes for the first proposal received — no value ordering.
func (n *Node) onPropose(from consensus.ProcessID, m *ProposeMsg) []consensus.Effect {
	n.pendingMax = consensus.MaxValue(n.pendingMax, m.Value)
	if !n.bal.Fast() || !n.val.IsNone() {
		return nil
	}
	n.val = m.Value
	return []consensus.Effect{
		consensus.Send{To: from, Msg: &TwoB{Ballot: 0, Value: m.Value}},
	}
}

func (n *Node) onTwoB(from consensus.ProcessID, m *TwoB) []consensus.Effect {
	if !n.decided.IsNone() {
		return nil
	}
	if m.Ballot.Fast() {
		// Learner rule: our value is chosen once n−e acceptors voted
		// for it. Our own acceptor's vote arrives like any other (we
		// broadcast Propose to Π including ourselves), so the count
		// is over real votes only — no implicit self-support.
		if m.Value != n.initialVal {
			return nil
		}
		n.fastVotes[from] = struct{}{}
		if len(n.fastVotes) < n.cfg.FastQuorum() {
			return nil
		}
		n.fastDecided = true
		return n.decide(m.Value)
	}
	if n.lead.ballot != m.Ballot || !n.lead.sentTwoA || m.Value != n.lead.val {
		return nil
	}
	n.lead.twoBs[from] = struct{}{}
	if len(n.lead.twoBs) < n.cfg.ClassicQuorum() {
		return nil
	}
	return n.decide(m.Value)
}

func (n *Node) decide(v consensus.Value) []consensus.Effect {
	n.val = v
	n.decided = v
	return []consensus.Effect{
		consensus.Decide{Value: v},
		consensus.Broadcast{Msg: &DecideMsg{Value: v}, Self: false},
	}
}

func (n *Node) onDecide(v consensus.Value) []consensus.Effect {
	if !n.decided.IsNone() {
		return nil
	}
	n.val = v
	n.decided = v
	return []consensus.Effect{consensus.Decide{Value: v}}
}

func (n *Node) onOneA(from consensus.ProcessID, m *OneA) []consensus.Effect {
	if m.Ballot <= n.bal {
		return nil
	}
	n.bal = m.Ballot
	return []consensus.Effect{
		consensus.Send{To: from, Msg: &OneB{Ballot: m.Ballot, VBal: n.vbal, Val: n.val}},
	}
}

// onOneB runs Lamport's O4 recovery once a recovery quorum of reports is
// in (n−f classically; RecoverySize under flexible quorums).
func (n *Node) onOneB(from consensus.ProcessID, m *OneB) []consensus.Effect {
	// Ballot 0 is never led; this also protects the zero-value leader
	// state from stray reports.
	if m.Ballot.Fast() || n.lead.ballot != m.Ballot || n.lead.sentTwoA {
		return nil
	}
	n.lead.oneBs[from] = *m
	if len(n.lead.oneBs) < n.cfg.RecoveryQuorum() {
		return nil
	}
	v := n.recover(n.lead.oneBs)
	if v.IsNone() {
		return nil
	}
	n.lead.sentTwoA = true
	n.lead.val = v
	return []consensus.Effect{
		consensus.Broadcast{Msg: &TwoA{Ballot: m.Ballot, Value: v}, Self: true},
	}
}

// recover implements the coordinator's value-selection rule: highest
// slow-ballot vote; else any value with ≥ FastOverlap fast votes in Q
// (n−e−f classically — unique at n ≥ 2e+f+1, and unique under any sound
// flexible sizing since recovery+2·fast > 2n; maximal for determinism
// below the bound); else the coordinator's own or a pending proposal;
// else the greatest visible vote.
func (n *Node) recover(reports map[consensus.ProcessID]OneB) consensus.Value {
	members := make([]consensus.ProcessID, 0, len(reports))
	for q := range reports {
		members = append(members, q)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	var bmax consensus.Ballot
	for _, q := range members {
		if vb := reports[q].VBal; vb > bmax {
			bmax = vb
		}
	}
	if bmax > 0 {
		best := consensus.None
		for _, q := range members {
			if reports[q].VBal == bmax {
				best = consensus.MaxValue(best, reports[q].Val)
			}
		}
		return best
	}

	counts := make(map[consensus.Value]int)
	for _, q := range members {
		if v := reports[q].Val; !v.IsNone() {
			counts[v]++
		}
	}
	threshold := n.cfg.FastOverlap()
	best := consensus.None
	for v, c := range counts {
		if c >= threshold {
			best = consensus.MaxValue(best, v)
		}
	}
	if !best.IsNone() {
		return best
	}
	if !n.initialVal.IsNone() {
		return n.initialVal
	}
	for _, q := range members {
		if v := reports[q].Val; !v.IsNone() {
			best = consensus.MaxValue(best, v)
		}
	}
	if !best.IsNone() {
		return best
	}
	return n.pendingMax
}

func (n *Node) onTwoA(from consensus.ProcessID, m *TwoA) []consensus.Effect {
	if n.bal > m.Ballot {
		return nil
	}
	n.bal = m.Ballot
	n.vbal = m.Ballot
	n.val = m.Value
	return []consensus.Effect{
		consensus.Send{To: from, Msg: &TwoB{Ballot: m.Ballot, Value: m.Value}},
	}
}

// Tick implements consensus.Protocol, pacing recovery like the core protocol.
func (n *Node) Tick(t consensus.TimerID) []consensus.Effect {
	if t != TimerNewBallot {
		return nil
	}
	effects := []consensus.Effect{
		consensus.StartTimer{Timer: TimerNewBallot, After: 5 * n.cfg.Delta},
	}
	if !n.decided.IsNone() {
		return append(effects, consensus.Broadcast{Msg: &DecideMsg{Value: n.decided}, Self: false})
	}
	lead := n.leaderOrNone()
	if lead != n.cfg.ID {
		if lead != consensus.NoProcess && !n.initialVal.IsNone() {
			return append(effects, consensus.Send{To: lead, Msg: &ProposeMsg{Value: n.initialVal}})
		}
		return effects
	}
	b := nextOwnedBallot(n.bal, n.cfg.ID, n.cfg.N)
	n.lead = leaderState{
		ballot: b,
		oneBs:  make(map[consensus.ProcessID]OneB),
		twoBs:  make(map[consensus.ProcessID]struct{}),
	}
	return append(effects, consensus.Broadcast{Msg: &OneA{Ballot: b}, Self: true})
}

func (n *Node) leaderOrNone() consensus.ProcessID {
	if n.omega == nil {
		return consensus.NoProcess
	}
	return n.omega.Leader()
}

func nextOwnedBallot(bal consensus.Ballot, id consensus.ProcessID, n int) consensus.Ballot {
	b := bal + 1
	if r := int64(b) % int64(n); r != int64(id) {
		b += consensus.Ballot((int64(id) - r + int64(n)) % int64(n))
	}
	return b
}

// DumpState returns a canonical dump of the node's full state for the model
// checker's deduplication (internal/mc).
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
	return fmt.Sprintf("iv=%v v=%v b=%d vb=%d d=%v pm=%v fv=%v|lead{b=%d 1b=%v s2a=%v lv=%v 2b=%v}",
		n.initialVal, n.val, n.bal, n.vbal, n.decided, n.pendingMax, votes,
		n.lead.ballot, oneBs, n.lead.sentTwoA, n.lead.val, twoBs)
}
