// Package epaxos implements a single-shot variant of the Egalitarian Paxos
// fast path (Moraru et al., SOSP 2013) — the protocol whose existence
// motivated the paper: it decides in two message delays under
// e = ⌈(f+1)/2⌉ crashes while using only 2f+1 processes, seemingly below
// Lamport's fast-consensus bound.
//
// Faithful to EPaxos, every consensus instance is owned by one command
// leader: only the owner ever proposes a value into its instance, and other
// processes vote unconditionally (there are no competing values inside an
// instance; EPaxos conflicts concern command ordering, which a single-shot
// instance does not model). The fast path is:
//
//	owner:     broadcast PreAccept(v)
//	acceptor:  record v, reply PreAcceptOK
//	owner:     commit after n−e PreAcceptOKs counting itself,
//	           where n−e = f + ⌊(f+1)/2⌋ (the EPaxos fast quorum)
//
// If the owner crashes, an Ω-elected leader recovers the instance with a
// Paxos-style ballot: from n−f state reports, if a slow-ballot vote is
// visible it wins; else if at least n−f−e fast votes for v are visible the
// leader must propose v (a fast commit leaves at least that many in any
// n−f quorum); else no fast commit can have happened and the leader
// proposes Noop, closing the instance. Deciding Noop is the EPaxos analogue
// of committing a no-op during recovery and is exempt from Validity (the
// benches check Agreement and Termination for this protocol).
package epaxos

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/consensus"
	"repro/internal/quorum"
)

// Noop is the distinguished value a recovery commits when it can prove the
// instance's command was never fast-committed and cannot be recovered.
var Noop = consensus.Value{Key: math.MinInt64 + 1, Data: "noop"}

// Message kinds for the wire codec.
const (
	KindPreAccept   = "epaxos.preaccept"
	KindPreAcceptOK = "epaxos.preaccept_ok"
	KindPrepare     = "epaxos.prepare"
	KindPrepareOK   = "epaxos.prepare_ok"
	KindAccept      = "epaxos.accept"
	KindAcceptOK    = "epaxos.accept_ok"
	KindCommit      = "epaxos.commit"
)

// PreAccept is the owner's fast-path proposal.
type PreAccept struct {
	Value consensus.Value
}

// PreAcceptOK acknowledges a PreAccept.
type PreAcceptOK struct {
	Value consensus.Value
}

// Prepare asks processes to join a recovery ballot.
type Prepare struct {
	Ballot consensus.Ballot
}

// PrepareOK reports instance state to a recovery leader.
type PrepareOK struct {
	Ballot    consensus.Ballot
	VBal      consensus.Ballot
	Val       consensus.Value
	FastVoted bool
	Committed consensus.Value
}

// Accept is the slow-path (recovery) proposal at a ballot.
type Accept struct {
	Ballot consensus.Ballot
	Value  consensus.Value
}

// AcceptOK is a slow-path vote.
type AcceptOK struct {
	Ballot consensus.Ballot
	Value  consensus.Value
}

// Commit announces the instance's decision.
type Commit struct {
	Value consensus.Value
}

// Kind implements consensus.Message.
func (PreAccept) Kind() string { return KindPreAccept }

// Kind implements consensus.Message.
func (PreAcceptOK) Kind() string { return KindPreAcceptOK }

// Kind implements consensus.Message.
func (Prepare) Kind() string { return KindPrepare }

// Kind implements consensus.Message.
func (PrepareOK) Kind() string { return KindPrepareOK }

// Kind implements consensus.Message.
func (Accept) Kind() string { return KindAccept }

// Kind implements consensus.Message.
func (AcceptOK) Kind() string { return KindAcceptOK }

// Kind implements consensus.Message.
func (Commit) Kind() string { return KindCommit }

// AppendBody and DecodeBody implement consensus.Message: each message's
// fields in declaration order.
func (m *PreAccept) AppendBody(dst []byte) []byte { return consensus.AppendValue(dst, m.Value) }
func (m *PreAccept) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Value = d.Value()
	return d.Finish()
}

func (m *PreAcceptOK) AppendBody(dst []byte) []byte { return consensus.AppendValue(dst, m.Value) }
func (m *PreAcceptOK) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Value = d.Value()
	return d.Finish()
}

func (m *Prepare) AppendBody(dst []byte) []byte { return consensus.AppendBallot(dst, m.Ballot) }
func (m *Prepare) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Ballot = d.Ballot()
	return d.Finish()
}

func (m *PrepareOK) AppendBody(dst []byte) []byte {
	dst = consensus.AppendBallot(consensus.AppendBallot(dst, m.Ballot), m.VBal)
	dst = consensus.AppendBool(consensus.AppendValue(dst, m.Val), m.FastVoted)
	return consensus.AppendValue(dst, m.Committed)
}

func (m *PrepareOK) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Ballot, m.VBal, m.Val = d.Ballot(), d.Ballot(), d.Value()
	m.FastVoted, m.Committed = d.Bool(), d.Value()
	return d.Finish()
}

func (m *Accept) AppendBody(dst []byte) []byte {
	return consensus.AppendValue(consensus.AppendBallot(dst, m.Ballot), m.Value)
}
func (m *Accept) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Ballot, m.Value = d.Ballot(), d.Value()
	return d.Finish()
}

func (m *AcceptOK) AppendBody(dst []byte) []byte {
	return consensus.AppendValue(consensus.AppendBallot(dst, m.Ballot), m.Value)
}
func (m *AcceptOK) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Ballot, m.Value = d.Ballot(), d.Value()
	return d.Finish()
}

func (m *Commit) AppendBody(dst []byte) []byte { return consensus.AppendValue(dst, m.Value) }
func (m *Commit) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Value = d.Value()
	return d.Finish()
}

// RegisterMessages registers all epaxos message kinds with codec.
func RegisterMessages(codec *consensus.Codec) {
	codec.MustRegister(KindPreAccept, func() consensus.Message { return &PreAccept{} })
	codec.MustRegister(KindPreAcceptOK, func() consensus.Message { return &PreAcceptOK{} })
	codec.MustRegister(KindPrepare, func() consensus.Message { return &Prepare{} })
	codec.MustRegister(KindPrepareOK, func() consensus.Message { return &PrepareOK{} })
	codec.MustRegister(KindAccept, func() consensus.Message { return &Accept{} })
	codec.MustRegister(KindAcceptOK, func() consensus.Message { return &AcceptOK{} })
	codec.MustRegister(KindCommit, func() consensus.Message { return &Commit{} })
}

// TimerRecover paces recovery: 2Δ at startup, then 5Δ.
const TimerRecover consensus.TimerID = "epaxos.recover"

// Node is one process's view of a single EPaxos-style instance.
type Node struct {
	cfg   consensus.Config
	owner consensus.ProcessID
	omega consensus.LeaderOracle

	proposal  consensus.Value // owner's command, ⊥ until proposed
	val       consensus.Value // recorded (pre-accepted or accepted) value
	fastVoted bool            // true if val was recorded from a PreAccept
	bal       consensus.Ballot
	vbal      consensus.Ballot
	decided   consensus.Value

	fastAcks    map[consensus.ProcessID]struct{}
	fastDecided bool
	lead        leaderState
}

type leaderState struct {
	ballot     consensus.Ballot
	prepareOKs map[consensus.ProcessID]PrepareOK
	sentAccept bool
	val        consensus.Value
	acceptOKs  map[consensus.ProcessID]struct{}
}

var _ consensus.Protocol = (*Node)(nil)

// New builds one process of an instance owned by owner. The EPaxos setting
// fixes e = ⌈(f+1)/2⌉; cfg.E must match and n must be at least 2f+1.
func New(cfg consensus.Config, owner consensus.ProcessID, omega consensus.LeaderOracle) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("epaxos: %w", err)
	}
	if cfg.N < quorum.PlainMinProcesses(cfg.F) {
		return nil, fmt.Errorf("epaxos: n=%d below 2f+1=%d: %w",
			cfg.N, quorum.PlainMinProcesses(cfg.F), quorum.ErrInfeasible)
	}
	if want := quorum.EPaxosFastThreshold(cfg.F); cfg.E != want {
		return nil, fmt.Errorf("epaxos: e=%d must be ⌈(f+1)/2⌉=%d", cfg.E, want)
	}
	return NewUnchecked(cfg, owner, omega), nil
}

// NewUnchecked builds a node without parameter checks.
func NewUnchecked(cfg consensus.Config, owner consensus.ProcessID, omega consensus.LeaderOracle) *Node {
	return &Node{
		cfg:      cfg,
		owner:    owner,
		omega:    omega,
		proposal: consensus.None,
		val:      consensus.None,
		decided:  consensus.None,
		fastAcks: make(map[consensus.ProcessID]struct{}),
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

// DecidedFast reports whether this node committed on the fast path (as
// owner, from a full fast quorum of PreAcceptOKs). The WAN bench uses it
// to compute slow-path rates.
func (n *Node) DecidedFast() (fast, decided bool) {
	return n.fastDecided, !n.decided.IsNone()
}

// Start implements consensus.Protocol.
func (n *Node) Start() []consensus.Effect {
	return []consensus.Effect{
		consensus.StartTimer{Timer: TimerRecover, After: 2 * n.cfg.Delta},
	}
}

// Propose implements consensus.Protocol. Only the owner may propose.
func (n *Node) Propose(v consensus.Value) []consensus.Effect {
	if v.IsNone() || n.cfg.ID != n.owner || !n.proposal.IsNone() {
		return nil
	}
	n.proposal = v
	n.val = v
	n.fastVoted = true
	return []consensus.Effect{
		consensus.Broadcast{Msg: &PreAccept{Value: v}, Self: false},
	}
}

// Deliver implements consensus.Protocol.
func (n *Node) Deliver(from consensus.ProcessID, m consensus.Message) []consensus.Effect {
	switch msg := m.(type) {
	case *PreAccept:
		return n.onPreAccept(from, msg)
	case *PreAcceptOK:
		return n.onPreAcceptOK(from, msg)
	case *Commit:
		return n.onCommit(msg.Value)
	case *Prepare:
		return n.onPrepare(from, msg)
	case *PrepareOK:
		return n.onPrepareOK(from, msg)
	case *Accept:
		return n.onAccept(from, msg)
	case *AcceptOK:
		return n.onAcceptOK(from, msg)
	default:
		return nil
	}
}

func (n *Node) onPreAccept(from consensus.ProcessID, m *PreAccept) []consensus.Effect {
	if from != n.owner || !n.bal.Fast() || !n.val.IsNone() {
		return nil
	}
	n.val = m.Value
	n.fastVoted = true
	return []consensus.Effect{
		consensus.Send{To: from, Msg: &PreAcceptOK{Value: m.Value}},
	}
}

func (n *Node) onPreAcceptOK(from consensus.ProcessID, m *PreAcceptOK) []consensus.Effect {
	if n.cfg.ID != n.owner || !n.decided.IsNone() || !n.bal.Fast() || m.Value != n.proposal {
		return nil
	}
	if from != n.cfg.ID {
		n.fastAcks[from] = struct{}{}
	}
	if len(n.fastAcks)+1 < n.cfg.FastQuorum() {
		return nil
	}
	n.fastDecided = true
	return n.commit(m.Value)
}

func (n *Node) commit(v consensus.Value) []consensus.Effect {
	n.decided = v
	return []consensus.Effect{
		consensus.Decide{Value: v},
		consensus.Broadcast{Msg: &Commit{Value: v}, Self: false},
	}
}

func (n *Node) onCommit(v consensus.Value) []consensus.Effect {
	if !n.decided.IsNone() {
		return nil
	}
	n.decided = v
	return []consensus.Effect{consensus.Decide{Value: v}}
}

func (n *Node) onPrepare(from consensus.ProcessID, m *Prepare) []consensus.Effect {
	if m.Ballot <= n.bal {
		return nil
	}
	n.bal = m.Ballot
	return []consensus.Effect{
		consensus.Send{To: from, Msg: &PrepareOK{
			Ballot:    m.Ballot,
			VBal:      n.vbal,
			Val:       n.val,
			FastVoted: n.fastVoted && n.vbal == 0,
			Committed: n.decided,
		}},
	}
}

// onPrepareOK collects n−f state reports and runs instance recovery.
func (n *Node) onPrepareOK(from consensus.ProcessID, m *PrepareOK) []consensus.Effect {
	// Ballot 0 is the fast path and is never led; this also protects the
	// zero-value leader state from stray reports.
	if m.Ballot.Fast() || n.lead.ballot != m.Ballot || n.lead.sentAccept {
		return nil
	}
	n.lead.prepareOKs[from] = *m
	if len(n.lead.prepareOKs) < n.cfg.ClassicQuorum() {
		return nil
	}
	v := n.recoverValue(n.lead.prepareOKs)
	n.lead.sentAccept = true
	n.lead.val = v
	return []consensus.Effect{
		consensus.Broadcast{Msg: &Accept{Ballot: m.Ballot, Value: v}, Self: true},
	}
}

// recoverValue decides what the recovery ballot proposes: a known commit, a
// slow-ballot vote, the owner's command when enough fast votes survive to
// make a fast commit possible, or Noop.
func (n *Node) recoverValue(reports map[consensus.ProcessID]PrepareOK) consensus.Value {
	members := make([]consensus.ProcessID, 0, len(reports))
	for q := range reports {
		members = append(members, q)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	for _, q := range members {
		if c := reports[q].Committed; !c.IsNone() {
			return c
		}
	}
	var bmax consensus.Ballot
	for _, q := range members {
		if vb := reports[q].VBal; vb > bmax {
			bmax = vb
		}
	}
	if bmax > 0 {
		for _, q := range members {
			if reports[q].VBal == bmax {
				return reports[q].Val
			}
		}
	}
	fastVotes := 0
	value := consensus.None
	for _, q := range members {
		r := reports[q]
		if r.FastVoted && !r.Val.IsNone() {
			fastVotes++
			value = r.Val
		}
	}
	// A fast commit gathers n−e votes; any n−f of the processes include
	// at least n−e−f of them. Seeing fewer proves no fast commit exists.
	if fastVotes >= n.cfg.N-n.cfg.E-n.cfg.F && !value.IsNone() {
		return value
	}
	return Noop
}

func (n *Node) onAccept(from consensus.ProcessID, m *Accept) []consensus.Effect {
	if n.bal > m.Ballot {
		return nil
	}
	n.bal = m.Ballot
	n.vbal = m.Ballot
	n.val = m.Value
	n.fastVoted = false
	return []consensus.Effect{
		consensus.Send{To: from, Msg: &AcceptOK{Ballot: m.Ballot, Value: m.Value}},
	}
}

func (n *Node) onAcceptOK(from consensus.ProcessID, m *AcceptOK) []consensus.Effect {
	if n.lead.ballot != m.Ballot || !n.lead.sentAccept || m.Value != n.lead.val || !n.decided.IsNone() {
		return nil
	}
	n.lead.acceptOKs[from] = struct{}{}
	if len(n.lead.acceptOKs) < n.cfg.ClassicQuorum() {
		return nil
	}
	return n.commit(m.Value)
}

// Tick implements consensus.Protocol: Ω-guarded instance recovery.
func (n *Node) Tick(t consensus.TimerID) []consensus.Effect {
	if t != TimerRecover {
		return nil
	}
	effects := []consensus.Effect{
		consensus.StartTimer{Timer: TimerRecover, After: 5 * n.cfg.Delta},
	}
	if !n.decided.IsNone() {
		return append(effects, consensus.Broadcast{Msg: &Commit{Value: n.decided}, Self: false})
	}
	if n.omega == nil || n.omega.Leader() != n.cfg.ID {
		return effects
	}
	b := nextOwnedBallot(n.bal, n.cfg.ID, n.cfg.N)
	n.lead = leaderState{
		ballot:     b,
		prepareOKs: make(map[consensus.ProcessID]PrepareOK),
		acceptOKs:  make(map[consensus.ProcessID]struct{}),
	}
	return append(effects, consensus.Broadcast{Msg: &Prepare{Ballot: b}, Self: true})
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
	acks := make([]int, 0, len(n.fastAcks))
	for p := range n.fastAcks {
		acks = append(acks, int(p))
	}
	sort.Ints(acks)
	pOKs := make([]string, 0, len(n.lead.prepareOKs))
	for p, ok := range n.lead.prepareOKs {
		pOKs = append(pOKs, fmt.Sprintf("%d:%+v", p, ok))
	}
	sort.Strings(pOKs)
	aOKs := make([]int, 0, len(n.lead.acceptOKs))
	for p := range n.lead.acceptOKs {
		aOKs = append(aOKs, int(p))
	}
	sort.Ints(aOKs)
	return fmt.Sprintf("own=%d pr=%v v=%v fv=%v b=%d vb=%d d=%v acks=%v|lead{b=%d p=%v sa=%v lv=%v a=%v}",
		n.owner, n.proposal, n.val, n.fastVoted, n.bal, n.vbal, n.decided, acks,
		n.lead.ballot, pOKs, n.lead.sentAccept, n.lead.val, aOKs)
}
