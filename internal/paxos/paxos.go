// Package paxos implements classic single-decree Paxos as a baseline.
//
// The deployment is leader-driven in the Multi-Paxos style the paper's
// introduction refers to: ballot 0 is implicitly pre-promised to process 0,
// so when the initial leader is correct and the system is synchronous it
// proposes directly with a 2A and decides after two message delays. Any
// other proposer forwards its value to the current Ω leader, adding a
// message delay. If the initial leader crashes, progress waits for a timer
// and a full phase-1 + phase-2 slow ballot — which is precisely why Paxos is
// not e-two-step for any e > 0 (§2 of the paper): with the initial leader in
// the crash set E there is no run in which anyone decides by 2Δ.
//
// Ballots are owned round-robin: ballot b belongs to process b mod n.
// Ballot 0 therefore belongs to process 0, which skips phase 1 for it.
package paxos

import (
	"fmt"
	"sort"

	"repro/internal/consensus"
	"repro/internal/quorum"
)

// Message kinds for the wire codec.
const (
	KindForward = "paxos.forward"
	KindOneA    = "paxos.1a"
	KindOneB    = "paxos.1b"
	KindTwoA    = "paxos.2a"
	KindTwoB    = "paxos.2b"
	KindDecide  = "paxos.decide"
)

// Forward carries a proposal from a non-leader to the current leader.
type Forward struct {
	Value consensus.Value
}

// OneA is the phase-1 prepare request for a ballot.
type OneA struct {
	Ballot consensus.Ballot
}

// OneB is the phase-1 promise, carrying the highest accepted vote.
type OneB struct {
	Ballot consensus.Ballot
	VBal   consensus.Ballot
	Val    consensus.Value
}

// TwoA is the phase-2 accept request.
type TwoA struct {
	Ballot consensus.Ballot
	Value  consensus.Value
}

// TwoB is the phase-2 vote.
type TwoB struct {
	Ballot consensus.Ballot
	Value  consensus.Value
}

// DecideMsg announces the decision.
type DecideMsg struct {
	Value consensus.Value
}

// Kind implements consensus.Message.
func (Forward) Kind() string { return KindForward }

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
func (m *Forward) AppendBody(dst []byte) []byte { return consensus.AppendValue(dst, m.Value) }
func (m *Forward) DecodeBody(body []byte) error {
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

// RegisterMessages registers all paxos message kinds with codec.
func RegisterMessages(codec *consensus.Codec) {
	codec.MustRegister(KindForward, func() consensus.Message { return &Forward{} })
	codec.MustRegister(KindOneA, func() consensus.Message { return &OneA{} })
	codec.MustRegister(KindOneB, func() consensus.Message { return &OneB{} })
	codec.MustRegister(KindTwoA, func() consensus.Message { return &TwoA{} })
	codec.MustRegister(KindTwoB, func() consensus.Message { return &TwoB{} })
	codec.MustRegister(KindDecide, func() consensus.Message { return &DecideMsg{} })
}

// TimerLeader drives leader-change attempts; armed to 2Δ at startup and 5Δ
// thereafter, mirroring the core protocol's pacing so latency comparisons
// are apples-to-apples.
const TimerLeader consensus.TimerID = "paxos.leader"

// Node is one classic Paxos process.
type Node struct {
	cfg   consensus.Config
	omega consensus.LeaderOracle

	// Acceptor state.
	bal     consensus.Ballot // highest promised ballot
	vbal    consensus.Ballot // ballot of last vote (-1: none)
	val     consensus.Value  // last voted value
	decided consensus.Value

	// Proposer state.
	initialVal consensus.Value // own proposal (also used when leading)
	pending    consensus.Value // greatest forwarded/own value to propose

	lead leaderState
}

type leaderState struct {
	ballot   consensus.Ballot // ballot being led; -1 when none
	oneBs    map[consensus.ProcessID]OneB
	sentTwoA bool
	val      consensus.Value
	twoBs    map[consensus.ProcessID]struct{}
}

var _ consensus.Protocol = (*Node)(nil)

// New builds a Paxos node, checking n ≥ 2f+1.
func New(cfg consensus.Config, omega consensus.LeaderOracle) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("paxos: %w", err)
	}
	if cfg.N < quorum.PlainMinProcesses(cfg.F) {
		return nil, fmt.Errorf("paxos: n=%d below 2f+1=%d: %w",
			cfg.N, quorum.PlainMinProcesses(cfg.F), quorum.ErrInfeasible)
	}
	return NewUnchecked(cfg, omega), nil
}

// NewUnchecked builds a Paxos node without the bound check.
func NewUnchecked(cfg consensus.Config, omega consensus.LeaderOracle) *Node {
	return &Node{
		cfg:        cfg,
		omega:      omega,
		bal:        0, // ballot 0 implicitly promised everywhere
		vbal:       -1,
		val:        consensus.None,
		decided:    consensus.None,
		initialVal: consensus.None,
		pending:    consensus.None,
		lead:       leaderState{ballot: -1},
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

// DecidedFast implements the optional fast-path reporting interface the
// WAN bench consumes. Classic Paxos has no fast path, so the first result
// is always false.
func (n *Node) DecidedFast() (fast, decided bool) {
	return false, !n.decided.IsNone()
}

// Start implements consensus.Protocol.
func (n *Node) Start() []consensus.Effect {
	return []consensus.Effect{
		consensus.StartTimer{Timer: TimerLeader, After: 2 * n.cfg.Delta},
	}
}

// Propose implements consensus.Protocol. Process 0 exploits its pre-promised
// ballot 0 and proposes immediately; everyone else forwards to the leader.
func (n *Node) Propose(v consensus.Value) []consensus.Effect {
	if v.IsNone() || !n.initialVal.IsNone() {
		return nil
	}
	n.initialVal = v
	n.pending = consensus.MaxValue(n.pending, v)
	if n.cfg.ID == 0 {
		return n.proposeAtBallotZero()
	}
	lead := n.leaderOrNone()
	if lead == consensus.NoProcess {
		return nil
	}
	return []consensus.Effect{consensus.Send{To: lead, Msg: &Forward{Value: v}}}
}

// proposeAtBallotZero starts phase 2 directly on the pre-promised ballot 0.
func (n *Node) proposeAtBallotZero() []consensus.Effect {
	if n.lead.ballot >= 0 || n.pending.IsNone() {
		return nil
	}
	n.lead = leaderState{
		ballot:   0,
		sentTwoA: true,
		val:      n.pending,
		twoBs:    make(map[consensus.ProcessID]struct{}),
	}
	return []consensus.Effect{
		consensus.Broadcast{Msg: &TwoA{Ballot: 0, Value: n.pending}, Self: true},
	}
}

// Deliver implements consensus.Protocol.
func (n *Node) Deliver(from consensus.ProcessID, m consensus.Message) []consensus.Effect {
	switch msg := m.(type) {
	case *Forward:
		n.pending = consensus.MaxValue(n.pending, msg.Value)
		if n.cfg.ID == 0 && n.lead.ballot < 0 && n.decided.IsNone() {
			return n.proposeAtBallotZero()
		}
		return nil
	case *OneA:
		return n.onOneA(from, msg)
	case *OneB:
		return n.onOneB(from, msg)
	case *TwoA:
		return n.onTwoA(from, msg)
	case *TwoB:
		return n.onTwoB(from, msg)
	case *DecideMsg:
		return n.onDecide(msg.Value)
	default:
		return nil
	}
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

func (n *Node) onOneB(from consensus.ProcessID, m *OneB) []consensus.Effect {
	// Ballots this node leads are always positive (ballot 0 skips phase
	// 1); rejecting the rest also protects the idle leader state (ballot
	// −1, nil maps) from stray or malformed reports.
	if m.Ballot <= 0 || n.lead.ballot != m.Ballot || n.lead.sentTwoA {
		return nil
	}
	n.lead.oneBs[from] = *m
	if len(n.lead.oneBs) < n.cfg.ClassicQuorum() {
		return nil
	}
	// Choose the value of the highest-ballot vote, else a pending value.
	v := consensus.None
	best := consensus.Ballot(-1)
	members := make([]consensus.ProcessID, 0, len(n.lead.oneBs))
	for q := range n.lead.oneBs {
		members = append(members, q)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	for _, q := range members {
		r := n.lead.oneBs[q]
		if r.VBal > best && !r.Val.IsNone() {
			best = r.VBal
			v = r.Val
		}
	}
	if v.IsNone() {
		v = n.pending
	}
	if v.IsNone() {
		return nil // nothing to propose yet; retry on a later timer
	}
	n.lead.sentTwoA = true
	n.lead.val = v
	return []consensus.Effect{
		consensus.Broadcast{Msg: &TwoA{Ballot: m.Ballot, Value: v}, Self: true},
	}
}

func (n *Node) onTwoA(from consensus.ProcessID, m *TwoA) []consensus.Effect {
	if m.Ballot < n.bal {
		return nil
	}
	n.bal = m.Ballot
	n.vbal = m.Ballot
	n.val = m.Value
	return []consensus.Effect{
		consensus.Send{To: from, Msg: &TwoB{Ballot: m.Ballot, Value: m.Value}},
	}
}

func (n *Node) onTwoB(from consensus.ProcessID, m *TwoB) []consensus.Effect {
	if n.lead.ballot != m.Ballot || !n.lead.sentTwoA || m.Value != n.lead.val || !n.decided.IsNone() {
		return nil
	}
	n.lead.twoBs[from] = struct{}{}
	if len(n.lead.twoBs) < n.cfg.ClassicQuorum() {
		return nil
	}
	n.decided = m.Value
	return []consensus.Effect{
		consensus.Decide{Value: m.Value},
		consensus.Broadcast{Msg: &DecideMsg{Value: m.Value}, Self: false},
	}
}

func (n *Node) onDecide(v consensus.Value) []consensus.Effect {
	if !n.decided.IsNone() {
		return nil
	}
	n.decided = v
	return []consensus.Effect{consensus.Decide{Value: v}}
}

// Tick implements consensus.Protocol: on expiry the Ω leader starts a fresh
// ballot (full phase 1) if no decision is known; non-leaders re-forward
// their pending proposal to the leader.
func (n *Node) Tick(t consensus.TimerID) []consensus.Effect {
	if t != TimerLeader {
		return nil
	}
	effects := []consensus.Effect{
		consensus.StartTimer{Timer: TimerLeader, After: 5 * n.cfg.Delta},
	}
	if !n.decided.IsNone() {
		return append(effects, consensus.Broadcast{Msg: &DecideMsg{Value: n.decided}, Self: false})
	}
	lead := n.leaderOrNone()
	if lead != n.cfg.ID {
		if lead != consensus.NoProcess && !n.initialVal.IsNone() {
			return append(effects, consensus.Send{To: lead, Msg: &Forward{Value: n.initialVal}})
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

// nextOwnedBallot returns the smallest ballot greater than bal owned by id
// under the rule b ≡ id (mod n).
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
	return fmt.Sprintf("iv=%v p=%v b=%d vb=%d v=%v d=%v|lead{b=%d 1b=%v s2a=%v lv=%v 2b=%v}",
		n.initialVal, n.pending, n.bal, n.vbal, n.val, n.decided,
		n.lead.ballot, oneBs, n.lead.sentTwoA, n.lead.val, twoBs)
}
