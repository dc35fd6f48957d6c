package slotlog

import (
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
)

// slotMsg wraps inner for slot n as a peer would send it.
func slotMsg(n int, inner consensus.Message) *SlotMessage { return wrapSlot(n, inner) }

// armed is the arming of slot n's timer the effects leave in place.
func armed(t *testing.T, eff Effects, n int) int {
	t.Helper()
	arm := 0
	for _, tm := range eff.Timers {
		if tm.Slot == n {
			arm = tm.Arm
		}
	}
	if arm == 0 {
		t.Fatalf("no timer armed for slot %d in %+v", n, eff.Timers)
	}
	return arm
}

// TestStaleFireIsIgnored: a fire names the arming it came from, and a fire
// for an arming that is no longer current — superseded by a later one,
// stopped, or of a slot decided or retired since — does nothing at all. The
// current arming reaches the core's Tick: at the Ω leader, a new ballot.
func TestStaleFireIsIgnored(t *testing.T) {
	cfg := consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}
	fire := func(l *Log, n, arm int) Effects {
		return l.Step(Input{Kind: Fire, Slot: n, Arm: arm, Leader: 0})
	}
	touch := func(l *Log, n int) int { // a peer's 1A starts slot n's instance
		return armed(t, l.Step(Input{Kind: Deliver, From: 1, Msg: slotMsg(n, &core.OneA{Ballot: 1})}), n)
	}

	l := New(cfg, nil, 0)
	first := touch(l, 3)
	eff := fire(l, 3, first)
	second := armed(t, eff, 3)
	if second == first || len(eff.Records) != 1 || len(eff.Sends) != cfg.N-1 || eff.Sends[0].Msg.(*SlotMessage).InnerKind != core.KindOneA {
		t.Fatalf("the current arming's fire = %+v, want a new ballot: a promise journaled, a 1A to each peer, the timer re-armed", eff)
	}
	for name, stale := range map[string]func() Effects{
		"superseded": func() Effects { return fire(l, 3, first) },
		"stopped": func() Effects {
			s := l.instance(4)
			arm := s.arm
			l.stop(s)
			return fire(l, 4, arm)
		},
		"decided": func() Effects {
			arm := touch(l, 5)
			l.Step(Input{Kind: Deliver, From: 1, Msg: slotMsg(5, &core.DecideMsg{Value: consensus.IntValue(7)})})
			return fire(l, 5, arm)
		},
		"retired": func() Effects {
			arm := touch(l, 0)
			l.Step(Input{Kind: Retire, Slot: 1})
			return fire(l, 0, arm)
		},
		"never armed": func() Effects { return fire(l, 9, second+100) },
	} {
		if eff := stale(); !reflect.DeepEqual(eff, Effects{}) {
			t.Errorf("a fire for a %s arming = %+v, want no effects", name, eff)
		}
	}
	if eff := fire(l, 3, second); len(eff.Sends) == 0 {
		t.Fatal("the current arming did nothing after the stale fires")
	}
}

// FuzzSlotLog drives process 1 of an n=5 group with an arbitrary sequence of
// the log's inputs — messages decoded from the fuzz bytes, proposals, timer
// fires, gossip, catch-up frames — and checks what must hold whatever
// arrives: no panic; the applied index and the compaction floor never fall;
// and in every Effects, what guards a send or a verdict is in it or behind
// it — a live instance's state is journaled, as a critical record, by the
// step that moved it, and a caller is told a slot applied only once the
// slot's decision is journaled (or a snapshot installed past it); and the
// snapshot a step journals is critical exactly when it backs an install —
// nothing that depends on the jump may leave before it is durable — while a
// periodic one, which restates what the journal holds, waits for nothing.
// The seeds under testdata/fuzz are inputs of the replay test's capture.
func FuzzSlotLog(f *testing.F) {
	v, _ := Command{ID: "p0-1", Op: OpPut, Key: "k", Val: "v"}.Encode()
	seed := AppendInput(nil, Input{Kind: Propose, Cmds: []Command{{Op: OpPut, Key: "a", Val: "1"}}})
	seed = AppendInput(seed, Input{Kind: Deliver, From: 0, Msg: slotMsg(0, &core.ProposeMsg{Value: v})})
	seed = AppendInput(seed, Input{Kind: Fire, Slot: 0, Arm: 1, Leader: 1})
	seed = AppendInput(seed, Input{Kind: Gossip, From: 2, Applied: 3})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		l := New(consensus.Config{ID: 1, N: 5, F: 2, E: 2, Delta: 10}, nil, 4)
		journaled := map[int]bool{} // slots whose decision is journaled
		installed := -1             // the applied index of the last snapshot installed
		for stream := data; ; {
			in, rest, err := NextInput(stream)
			if err != nil {
				return
			}
			stream = rest
			switch in.Kind {
			case Propose:
				if len(in.Cmds) == 0 {
					continue
				}
			case Deliver, Fire, Gossip:
			default:
				continue
			}
			applied, floor, installs := l.m.applied, l.floor, l.cu.stats.Installed
			eff := l.Step(in)
			if l.m.applied < applied || l.floor < floor {
				t.Fatalf("%+v moved applied %d → %d, floor %d → %d", in, applied, l.m.applied, floor, l.floor)
			}
			install, snapshots := l.cu.stats.Installed > installs, 0
			if install {
				installed = in.Msg.(*CatchupReply).Applied
			}
			for _, r := range eff.Records {
				if r.Kind == RecSnap {
					if snapshots++; r.Critical != install {
						t.Fatalf("a snapshot part journaled critical=%t by a step that installed=%t", r.Critical, install)
					}
				}
				if r.Kind == RecState && !r.Critical {
					t.Fatalf("slot %d's state journaled as not critical", r.Slot)
				}
				if r.Kind == RecDecide {
					journaled[r.Slot] = true
				}
			}
			if install && snapshots == 0 {
				t.Fatalf("an install at %d journaled no snapshot", installed)
			}
			for n, s := range l.slots {
				if s.node != nil && s.node.Snapshot() != s.persisted {
					t.Fatalf("after %+v, slot %d's instance moved past its journaled state", in.Kind, n)
				}
			}
			for _, v := range eff.Verdicts {
				if (v.Outcome == Applied || v.Outcome == Fenced) && !journaled[v.Slot] && v.Slot >= installed {
					t.Fatalf("slot %d reported applied with no decision journaled", v.Slot)
				}
			}
		}
	})
}
