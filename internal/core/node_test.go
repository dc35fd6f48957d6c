package core

import (
	"testing"

	"repro/internal/consensus"
)

func newTestNode(t *testing.T, id consensus.ProcessID, mode Mode) *Node {
	t.Helper()
	cfg := consensus.Config{ID: id, N: 5, F: 2, E: 1, Delta: 10}
	return NewUnchecked(cfg, mode, DefaultOptions(), consensus.FixedLeader(0))
}

// effectsContain reports whether any effect matches the predicate.
func effectsContain(effs []consensus.Effect, pred func(consensus.Effect) bool) bool {
	for _, e := range effs {
		if pred(e) {
			return true
		}
	}
	return false
}

func isSendKind(kind string) func(consensus.Effect) bool {
	return func(e consensus.Effect) bool {
		s, ok := e.(consensus.Send)
		return ok && s.Msg.Kind() == kind
	}
}

func isDecide(e consensus.Effect) bool {
	_, ok := e.(consensus.Decide)
	return ok
}

func TestProposeOnlyOnce(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	if effs := n.Propose(consensus.IntValue(5)); len(effs) == 0 {
		t.Fatal("first Propose produced nothing")
	}
	if effs := n.Propose(consensus.IntValue(9)); len(effs) != 0 {
		t.Fatalf("second Propose produced %v", effs)
	}
	if n.initialVal != consensus.IntValue(5) {
		t.Fatalf("initialVal overwritten: %v", n.initialVal)
	}
}

func TestProposeNoneIgnored(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	if effs := n.Propose(consensus.None); effs != nil {
		t.Fatalf("Propose(⊥) produced %v", effs)
	}
}

func TestProposeAfterVoteNotRegistered(t *testing.T) {
	n := newTestNode(t, 0, ModeObject)
	n.Deliver(1, &ProposeMsg{Value: consensus.IntValue(7)}) // vote for p1's value
	if effs := n.Propose(consensus.IntValue(9)); len(effs) != 0 {
		t.Fatalf("Propose after voting produced %v", effs)
	}
	if !n.initialVal.IsNone() {
		t.Fatal("initialVal set despite prior vote")
	}
}

func TestVoteOrderingTask(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	n.Propose(consensus.IntValue(5))
	if effs := n.Deliver(1, &ProposeMsg{Value: consensus.IntValue(3)}); len(effs) != 0 {
		t.Fatalf("voted for a lower value: %v", effs)
	}
	effs := n.Deliver(2, &ProposeMsg{Value: consensus.IntValue(8)})
	if !effectsContain(effs, isSendKind(KindTwoB)) {
		t.Fatalf("did not vote for a greater value: %v", effs)
	}
	if n.proposer != 2 || n.val != consensus.IntValue(8) {
		t.Fatalf("vote state: val=%v proposer=%v", n.val, n.proposer)
	}
	// Second vote refused.
	if effs := n.Deliver(3, &ProposeMsg{Value: consensus.IntValue(9)}); len(effs) != 0 {
		t.Fatalf("voted twice: %v", effs)
	}
}

func TestVoteObjectRejectsDifferentValueAfterOwnProposal(t *testing.T) {
	n := newTestNode(t, 0, ModeObject)
	n.Propose(consensus.IntValue(5))
	if effs := n.Deliver(1, &ProposeMsg{Value: consensus.IntValue(9)}); len(effs) != 0 {
		t.Fatalf("object node voted for a different value than its own proposal: %v", effs)
	}
	effs := n.Deliver(1, &ProposeMsg{Value: consensus.IntValue(5)})
	if !effectsContain(effs, isSendKind(KindTwoB)) {
		t.Fatalf("object node refused its own value from a peer: %v", effs)
	}
}

func TestVoteRefusedAfterFastBallot(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	n.Deliver(1, &OneA{Ballot: 6}) // joins slow ballot
	if effs := n.Deliver(2, &ProposeMsg{Value: consensus.IntValue(9)}); len(effs) != 0 {
		t.Fatalf("fast vote cast at slow ballot: %v", effs)
	}
}

func TestFastQuorumCountsDistinctVoters(t *testing.T) {
	n := newTestNode(t, 0, ModeTask) // n=5, e=1 → fast quorum 4 (3 others + self)
	n.Propose(consensus.IntValue(5))
	vote := &TwoB{Ballot: 0, Value: consensus.IntValue(5)}
	if effs := n.Deliver(1, vote); effectsContain(effs, isDecide) {
		t.Fatal("decided after 1 vote")
	}
	// Duplicate from the same voter must not advance the count.
	if effs := n.Deliver(1, vote); effectsContain(effs, isDecide) {
		t.Fatal("decided on duplicate vote")
	}
	n.Deliver(2, vote)
	effs := n.Deliver(3, vote)
	if !effectsContain(effs, isDecide) {
		t.Fatalf("no decision at fast quorum: %v", effs)
	}
	if v, ok := n.Decision(); !ok || v != consensus.IntValue(5) {
		t.Fatalf("Decision() = %v, %v", v, ok)
	}
	// Further protocol traffic after deciding is answered with the
	// decision itself (reactive anti-entropy), never with more votes.
	effs = n.Deliver(4, vote)
	if !effectsContain(effs, func(e consensus.Effect) bool {
		s, ok := e.(consensus.Send)
		if !ok {
			return false
		}
		d, ok := s.Msg.(*DecideMsg)
		return ok && s.To == 4 && d.Value == consensus.IntValue(5)
	}) {
		t.Fatalf("post-decision traffic not answered with the decision: %v", effs)
	}
}

func TestFastVoteForWrongValueIgnored(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	n.Propose(consensus.IntValue(5))
	for _, from := range []consensus.ProcessID{1, 2, 3, 4} {
		n.Deliver(from, &TwoB{Ballot: 0, Value: consensus.IntValue(6)})
	}
	if _, ok := n.Decision(); ok {
		t.Fatal("decided from votes for a foreign value")
	}
}

func TestOneAStaleBallotIgnored(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	if effs := n.Deliver(1, &OneA{Ballot: 6}); !effectsContain(effs, isSendKind(KindOneB)) {
		t.Fatalf("fresh 1A not answered: %v", effs)
	}
	if effs := n.Deliver(2, &OneA{Ballot: 6}); len(effs) != 0 {
		t.Fatalf("equal-ballot 1A answered: %v", effs)
	}
	if effs := n.Deliver(2, &OneA{Ballot: 3}); len(effs) != 0 {
		t.Fatalf("stale 1A answered: %v", effs)
	}
	if effs := n.Deliver(2, &OneA{Ballot: 9}); !effectsContain(effs, isSendKind(KindOneB)) {
		t.Fatalf("higher 1A not answered: %v", effs)
	}
}

func TestTwoAStaleBallotIgnored(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	n.Deliver(1, &OneA{Ballot: 6})
	if effs := n.Deliver(1, &TwoA{Ballot: 3, Value: consensus.IntValue(4)}); len(effs) != 0 {
		t.Fatalf("stale 2A accepted: %v", effs)
	}
	effs := n.Deliver(1, &TwoA{Ballot: 6, Value: consensus.IntValue(4)})
	if !effectsContain(effs, isSendKind(KindTwoB)) {
		t.Fatalf("current-ballot 2A refused: %v", effs)
	}
	if n.vbal != 6 || n.val != consensus.IntValue(4) {
		t.Fatalf("vote state after 2A: vbal=%v val=%v", n.vbal, n.val)
	}
}

func TestLeaderSlowBallotFlow(t *testing.T) {
	// p0 is the Ω leader; drive a full slow ballot by hand.
	n := newTestNode(t, 0, ModeTask)
	n.Propose(consensus.IntValue(5))
	effs := n.Tick(TimerNewBallot)
	if !effectsContain(effs, func(e consensus.Effect) bool {
		b, ok := e.(consensus.Broadcast)
		return ok && b.Msg.Kind() == KindOneA && b.Self
	}) {
		t.Fatalf("leader did not start a ballot: %v", effs)
	}
	b := n.lead.ballot
	if b%consensus.Ballot(n.cfg.N) != consensus.Ballot(n.cfg.ID) {
		t.Fatalf("ballot %d not owned by %s", b, n.cfg.ID)
	}
	// Collect 1Bs: a quorum of empty reports; leader proposes its own
	// value (rule 4).
	report := &OneB{Ballot: b, VBal: 0, Val: consensus.None, Proposer: consensus.NoProcess, Decided: consensus.None}
	n.Deliver(0, report)
	n.Deliver(1, report)
	effs = n.Deliver(2, report)
	found := false
	for _, e := range effs {
		if bc, ok := e.(consensus.Broadcast); ok {
			if ta, ok := bc.Msg.(*TwoA); ok {
				found = true
				if ta.Value != consensus.IntValue(5) {
					t.Fatalf("leader proposed %v, want own v(5)", ta.Value)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no 2A after 1B quorum: %v", effs)
	}
	// Extra 1Bs after 2A are ignored.
	if effs := n.Deliver(3, report); len(effs) != 0 {
		t.Fatalf("1B after 2A produced %v", effs)
	}
	// Collect 2Bs (classic quorum = 3): decide.
	vote := &TwoB{Ballot: b, Value: consensus.IntValue(5)}
	n.Deliver(0, vote)
	n.Deliver(1, vote)
	effs = n.Deliver(2, vote)
	if !effectsContain(effs, isDecide) {
		t.Fatalf("leader did not decide at classic quorum: %v", effs)
	}
}

func TestDecidedNodeGoesQuiescent(t *testing.T) {
	n := newTestNode(t, 1, ModeTask)
	n.Deliver(3, &DecideMsg{Value: consensus.IntValue(8)})
	// A bounded number of timer rebroadcasts…
	rebroadcasts := 0
	for i := 0; i < 10; i++ {
		effs := n.Tick(TimerNewBallot)
		stopped := false
		for _, e := range effs {
			switch e.(type) {
			case consensus.Broadcast:
				rebroadcasts++
			case consensus.StopTimer:
				stopped = true
			}
		}
		if stopped {
			break
		}
	}
	if rebroadcasts == 0 || rebroadcasts > 5 {
		t.Fatalf("rebroadcasts = %d, want a small positive number", rebroadcasts)
	}
	// …and after quiescence, stragglers are served reactively.
	effs := n.Deliver(2, &OneA{Ballot: 99})
	if !effectsContain(effs, isSendKind(KindDecide)) {
		t.Fatalf("quiescent node did not answer a straggler: %v", effs)
	}
}

func TestDecideMessageIdempotent(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	effs := n.Deliver(3, &DecideMsg{Value: consensus.IntValue(8)})
	if !effectsContain(effs, isDecide) {
		t.Fatalf("Decide not processed: %v", effs)
	}
	if effs := n.Deliver(4, &DecideMsg{Value: consensus.IntValue(8)}); len(effs) != 0 {
		t.Fatalf("duplicate Decide produced %v", effs)
	}
}

func TestTickAfterDecisionRebroadcasts(t *testing.T) {
	n := newTestNode(t, 1, ModeTask) // not the Ω leader
	n.Deliver(3, &DecideMsg{Value: consensus.IntValue(8)})
	effs := n.Tick(TimerNewBallot)
	if !effectsContain(effs, func(e consensus.Effect) bool {
		b, ok := e.(consensus.Broadcast)
		return ok && b.Msg.Kind() == KindDecide
	}) {
		t.Fatalf("decided node did not rebroadcast on tick: %v", effs)
	}
}

func TestNonLeaderTickResubmitsProposal(t *testing.T) {
	n := newTestNode(t, 1, ModeObject) // Ω leader is p0
	n.Propose(consensus.IntValue(5))
	effs := n.Tick(TimerNewBallot)
	if !effectsContain(effs, func(e consensus.Effect) bool {
		s, ok := e.(consensus.Send)
		return ok && s.To == 0 && s.Msg.Kind() == KindPropose
	}) {
		t.Fatalf("undecided proposer did not re-submit to the leader: %v", effs)
	}
}

func TestUnknownTimerIgnored(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	if effs := n.Tick("someone.elses.timer"); len(effs) != 0 {
		t.Fatalf("foreign timer produced %v", effs)
	}
}

func TestForeignMessageIgnored(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	if effs := n.Deliver(1, foreignMsg{}); len(effs) != 0 {
		t.Fatalf("foreign message produced %v", effs)
	}
}

type foreignMsg struct{}

func (foreignMsg) Kind() string                 { return "other.kind" }
func (foreignMsg) AppendBody(dst []byte) []byte { return dst }
func (foreignMsg) DecodeBody([]byte) error      { return nil }

func TestOneBForWrongBallotIgnored(t *testing.T) {
	n := newTestNode(t, 0, ModeTask)
	n.Tick(TimerNewBallot) // leads ballot 5 (n=5, id=0)
	wrong := &OneB{Ballot: n.lead.ballot + 1}
	if effs := n.Deliver(1, wrong); len(effs) != 0 {
		t.Fatalf("1B for foreign ballot processed: %v", effs)
	}
}
