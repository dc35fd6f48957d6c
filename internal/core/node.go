package core

import (
	"fmt"

	"repro/internal/consensus"
	"repro/internal/quorum"
)

// TimerNewBallot is the new-ballot timer of Appendix C.1: armed to 2Δ at
// startup (just long enough for the fast path) and re-armed to 5Δ on every
// expiry (long enough for a full slow ballot after GST).
const TimerNewBallot consensus.TimerID = "core.new_ballot"

// Node is one process running the Figure-1 protocol. It implements
// consensus.Protocol and is a pure deterministic state machine; see the
// package documentation for the protocol description.
type Node struct {
	cfg   consensus.Config
	mode  Mode
	opts  Options
	omega consensus.LeaderOracle

	// Acceptor state, named after the paper's variables.
	initialVal consensus.Value     // 𝗂𝗇𝗂𝗍𝗂𝖺𝗅_𝗏𝖺𝗅: own proposal, ⊥ until proposed
	val        consensus.Value     // 𝗏𝖺𝗅: current vote, ⊥ until cast
	proposer   consensus.ProcessID // 𝗉𝗋𝗈𝗉𝗈𝗌𝖾𝗋: proposer of the fast-ballot vote
	bal        consensus.Ballot    // 𝖻𝖺𝗅: current ballot
	vbal       consensus.Ballot    // 𝗏𝖻𝖺𝗅: ballot of the last vote cast
	decided    consensus.Value     // 𝖽𝖾𝖼𝗂𝖽𝖾𝖽: decided value, ⊥ until decided

	// fastVotes are the processes from which we received 2B(0, initialVal)
	// in response to our own Propose (the set P of the 2B handler; we
	// count ourselves implicitly via |P ∪ {p_i}|).
	fastVotes map[consensus.ProcessID]struct{}

	// pendingMax is the greatest proposal observed in any Propose
	// message, whether or not this process could vote for it. It feeds
	// the final recovery rule (termination completion, see recovery.go):
	// a leader that has nothing else to propose proposes a value it has
	// merely seen, which is what lets the object variant terminate when
	// the network delayed every Propose past the fast ballot.
	pendingMax consensus.Value

	// fastDecided records that this node's own decision came from a full
	// fast quorum of ballot-0 votes for its own proposal (the two-step
	// path), rather than a slow ballot or a DecideMsg. Reporting only —
	// never read by the protocol itself.
	fastDecided bool

	// rebroadcasts counts the remaining post-decision Decide
	// re-announcements; after they are spent the node goes quiescent and
	// answers stragglers reactively (see Deliver).
	rebroadcasts int

	lead leaderState
}

// leaderState tracks a slow ballot this node is leading.
type leaderState struct {
	ballot   consensus.Ballot // ballot being led; 0 when not leading
	oneBs    map[consensus.ProcessID]OneB
	sentTwoA bool
	val      consensus.Value // value proposed in 2A for this ballot
	twoBs    map[consensus.ProcessID]struct{}
}

var _ consensus.Protocol = (*Node)(nil)

// New builds a Node and verifies that cfg.N meets the tight bound for the
// requested mode (Theorem 5 for ModeTask, Theorem 6 for ModeObject). Use
// NewUnchecked to deliberately build below-bound nodes for lower-bound
// experiments.
func New(cfg consensus.Config, mode Mode, omega consensus.LeaderOracle) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	qm := quorum.Task
	if mode == ModeObject {
		qm = quorum.Object
	}
	if err := quorum.Check(qm, cfg.N, cfg.F, cfg.E); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return NewUnchecked(cfg, mode, DefaultOptions(), omega), nil
}

// NewUnchecked builds a Node without enforcing the process-count bound and
// with explicit Options. It is intended for the lower-bound and ablation
// experiments; production code should call New.
func NewUnchecked(cfg consensus.Config, mode Mode, opts Options, omega consensus.LeaderOracle) *Node {
	return &Node{
		cfg:        cfg,
		mode:       mode,
		opts:       opts,
		omega:      omega,
		initialVal: consensus.None,
		val:        consensus.None,
		proposer:   consensus.NoProcess,
		decided:    consensus.None,
		fastVotes:  make(map[consensus.ProcessID]struct{}),
		pendingMax: consensus.None,
	}
}

// ID implements consensus.Protocol.
func (n *Node) ID() consensus.ProcessID { return n.cfg.ID }

// Config returns the node's configuration.
func (n *Node) Config() consensus.Config { return n.cfg }

// Mode returns the node's consensus formulation.
func (n *Node) Mode() Mode { return n.mode }

// Decision implements consensus.Protocol.
func (n *Node) Decision() (consensus.Value, bool) {
	if n.decided.IsNone() {
		return consensus.None, false
	}
	return n.decided, true
}

// DecidedFast reports whether this node's decision was reached on the
// two-step fast path (a full fast quorum of ballot-0 votes for its own
// proposal). The WAN bench uses it to compute slow-path rates.
func (n *Node) DecidedFast() (fast, decided bool) {
	return n.fastDecided, !n.decided.IsNone()
}

// Start implements consensus.Protocol: it arms the initial 2Δ new-ballot
// timer. For a consensus task the harness must call Propose with the
// process's input immediately after Start.
func (n *Node) Start() []consensus.Effect {
	return []consensus.Effect{
		consensus.StartTimer{Timer: TimerNewBallot, After: 2 * n.cfg.Delta},
	}
}

// Propose implements consensus.Protocol: Figure 1, startup/propose(v)
// handler. The proposal is registered and broadcast only if this process
// has not yet voted for someone else's proposal (guard val = ⊥), and at
// most once.
func (n *Node) Propose(v consensus.Value) []consensus.Effect {
	if v.IsNone() {
		return nil
	}
	if !n.val.IsNone() || !n.initialVal.IsNone() {
		// Already voted for another proposal, or already proposed: the
		// invocation is not registered (object mode); the caller's
		// decision arrives with the instance's decision.
		return nil
	}
	n.initialVal = v
	return []consensus.Effect{
		consensus.Broadcast{Msg: &ProposeMsg{Value: v}, Self: false},
	}
}

// Deliver implements consensus.Protocol. Once decided, the node answers any
// further protocol traffic with the decision itself — the reactive
// anti-entropy that lets stragglers catch up after the node has gone
// quiescent (stopped rebroadcasting on its timer).
func (n *Node) Deliver(from consensus.ProcessID, m consensus.Message) []consensus.Effect {
	if !n.decided.IsNone() {
		if _, isDecide := m.(*DecideMsg); !isDecide {
			return []consensus.Effect{
				consensus.Send{To: from, Msg: &DecideMsg{Value: n.decided}},
			}
		}
		return nil
	}
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

// onPropose handles the fast-ballot Propose message (Figure 1, line 7).
func (n *Node) onPropose(from consensus.ProcessID, m *ProposeMsg) []consensus.Effect {
	n.pendingMax = consensus.MaxValue(n.pendingMax, m.Value)
	if !n.bal.Fast() || !n.val.IsNone() {
		return nil
	}
	if n.opts.ValueOrdering && m.Value.Less(n.initialVal) {
		return nil // requires v ≥ initial_val
	}
	if n.mode == ModeObject {
		// Red line: accept only if we have not proposed, or proposed
		// this same value.
		if !n.initialVal.IsNone() && m.Value != n.initialVal {
			return nil
		}
	}
	n.val = m.Value
	n.proposer = from
	return []consensus.Effect{
		consensus.Send{To: from, Msg: &TwoB{Ballot: 0, Value: m.Value}},
	}
}

// onTwoB handles votes (Figure 1, line 11). Fast-ballot votes are responses
// to our own Propose; slow-ballot votes are responses to a 2A we sent as
// ballot leader.
func (n *Node) onTwoB(from consensus.ProcessID, m *TwoB) []consensus.Effect {
	if !n.decided.IsNone() {
		return nil
	}
	if m.Ballot.Fast() {
		// First disjunct: bal = 0 ∧ |P ∪ {p_i}| ≥ n−e ∧ val ∈ {⊥, v}.
		if !n.bal.Fast() || m.Value != n.initialVal {
			return nil
		}
		if !n.val.IsNone() && n.val != m.Value {
			return nil
		}
		if from != n.cfg.ID {
			n.fastVotes[from] = struct{}{}
		}
		if len(n.fastVotes)+1 < n.cfg.FastQuorum() {
			return nil
		}
		n.fastDecided = true
		return n.decide(m.Value)
	}
	// Second disjunct: bal ≠ 0 ∧ |P| ≥ n−f, as leader of m.Ballot.
	if n.lead.ballot != m.Ballot || !n.lead.sentTwoA || m.Value != n.lead.val {
		return nil
	}
	n.lead.twoBs[from] = struct{}{}
	if len(n.lead.twoBs) < n.cfg.ClassicQuorum() {
		return nil
	}
	return n.decide(m.Value)
}

// decide records the decision and informs the other processes. A few more
// re-announcements follow on the timer (for lossy transports), after which
// the node goes quiescent.
func (n *Node) decide(v consensus.Value) []consensus.Effect {
	v = n.held(v)
	n.val = v
	n.decided = v
	n.rebroadcasts = decidedRebroadcasts
	return []consensus.Effect{
		consensus.Decide{Value: v},
		consensus.Broadcast{Msg: &DecideMsg{Value: v}, Self: false},
	}
}

// decidedRebroadcasts is how many timer-driven Decide re-announcements a
// node makes after deciding before going quiescent.
const decidedRebroadcasts = 3

// onDecide handles the Decide message (Figure 1, line 16).
func (n *Node) onDecide(v consensus.Value) []consensus.Effect {
	if !n.decided.IsNone() {
		return nil
	}
	v = n.held(v)
	n.val = v
	n.decided = v
	n.rebroadcasts = decidedRebroadcasts
	return []consensus.Effect{consensus.Decide{Value: v}}
}

// held returns v as this node already holds it, when it does. A decision
// is nearly always for the value the node proposed or voted for, but it
// arrives in another message, decoded into another copy of the payload; a
// decided instance lives on in its host's log, and keeping the copy it
// already had instead halves what each one retains.
func (n *Node) held(v consensus.Value) consensus.Value {
	switch v {
	case n.initialVal:
		return n.initialVal
	case n.val:
		return n.val
	case n.pendingMax:
		return n.pendingMax
	}
	return v
}

// onOneA handles a leader's request to join a slow ballot (Figure 1, line 19).
func (n *Node) onOneA(from consensus.ProcessID, m *OneA) []consensus.Effect {
	if m.Ballot <= n.bal {
		return nil
	}
	n.bal = m.Ballot
	return []consensus.Effect{
		consensus.Send{To: from, Msg: &OneB{
			Ballot:   m.Ballot,
			VBal:     n.vbal,
			Val:      n.val,
			Proposer: n.proposer,
			Decided:  n.decided,
		}},
	}
}

// onOneB collects state reports for a ballot we lead (Figure 1, line 24).
// When a recovery quorum of reports is in (n−f classically; RecoverySize
// under flexible quorums), the recovery rule computes a proposal.
func (n *Node) onOneB(from consensus.ProcessID, m *OneB) []consensus.Effect {
	// Ballot 0 is the fast ballot and is never led; rejecting it here
	// also protects the zero-value leader state from stray reports.
	if m.Ballot.Fast() || n.lead.ballot != m.Ballot || n.lead.sentTwoA {
		return nil
	}
	if _, dup := n.lead.oneBs[from]; dup {
		return nil
	}
	n.lead.oneBs[from] = *m
	if len(n.lead.oneBs) < n.cfg.RecoveryQuorum() {
		return nil
	}
	v := n.recover(n.lead.oneBs)
	if v.IsNone() {
		// Nothing to propose yet (object mode, no visible proposal).
		// Stay quiet; the next timer expiry retries with a new ballot.
		return nil
	}
	n.lead.sentTwoA = true
	n.lead.val = v
	return []consensus.Effect{
		consensus.Broadcast{Msg: &TwoA{Ballot: m.Ballot, Value: v}, Self: true},
	}
}

// onTwoA handles the leader's slow-ballot proposal (Figure 1, line 38).
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

// Tick implements consensus.Protocol: the new-ballot timer of Appendix C.1.
// The timer is re-armed to 5Δ; if the Ω oracle nominates this process it
// starts the next slow ballot it owns (b ≡ i mod n). After deciding, the
// timer instead re-broadcasts the decision, which is harmless in the
// simulator's reliable-link model and speeds convergence on lossy real
// transports.
func (n *Node) Tick(t consensus.TimerID) []consensus.Effect {
	if t != TimerNewBallot {
		return nil
	}
	if !n.decided.IsNone() {
		// A few re-announcements for lossy transports, then quiescence:
		// stragglers are answered reactively in Deliver.
		if n.rebroadcasts <= 0 {
			return []consensus.Effect{consensus.StopTimer{Timer: TimerNewBallot}}
		}
		n.rebroadcasts--
		return []consensus.Effect{
			consensus.StartTimer{Timer: TimerNewBallot, After: 5 * n.cfg.Delta},
			consensus.Broadcast{Msg: &DecideMsg{Value: n.decided}, Self: false},
		}
	}
	effects := []consensus.Effect{
		consensus.StartTimer{Timer: TimerNewBallot, After: 5 * n.cfg.Delta},
	}
	if n.omega == nil || n.omega.Leader() != n.cfg.ID {
		// Proxy completion: an undecided proposer re-submits its
		// proposal to the current leader, so that a leader that has
		// nothing to propose itself eventually learns of it.
		if lead := n.leaderOrNone(); lead != consensus.NoProcess && !n.initialVal.IsNone() {
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

// leaderOrNone returns the oracle's current leader, or NoProcess when no
// oracle is installed or the oracle has no candidate.
func (n *Node) leaderOrNone() consensus.ProcessID {
	if n.omega == nil {
		return consensus.NoProcess
	}
	return n.omega.Leader()
}

// nextOwnedBallot returns the smallest ballot greater than bal owned by
// process id under the ownership rule b ≡ id (mod n).
func nextOwnedBallot(bal consensus.Ballot, id consensus.ProcessID, n int) consensus.Ballot {
	b := bal + 1
	if r := (int64(b) % int64(n)); r != int64(id) {
		diff := (int64(id) - r + int64(n)) % int64(n)
		b += consensus.Ballot(diff)
	}
	return b
}
