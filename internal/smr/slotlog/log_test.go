package slotlog

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/lease"
)

// slotMsg wraps inner for slot n as a peer would send it.
func slotMsg(n int, inner consensus.Message) *SlotMessage { return wrapSlot(n, inner) }

// TestStaleFireIsIgnored: a fire before a slot's deadline, or for a slot
// stopped, decided or retired since, does nothing at all — and with nothing
// armed, a fire is no different. A due one reaches the core's Tick: at the Ω
// leader, a new ballot, counted as a timeout.
func TestStaleFireIsIgnored(t *testing.T) {
	cfg := consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}
	ms := time.Millisecond.Nanoseconds()
	fire := func(l *Log, now int64) Effects {
		return l.Step(Input{Kind: Fire, Now: now, Leader: 0, Stable: true})
	}
	touch := func(l *Log, n int, now int64) Effects { // a peer's 1A starts slot n's instance
		return l.Step(Input{Kind: Deliver, Now: now, From: 1, Msg: slotMsg(n, &core.OneA{Ballot: 1})})
	}

	l := New(cfg, time.Millisecond, nil, false, 0)
	if eff := touch(l, 3, 0); eff.Wake != 20*ms {
		t.Fatalf("a fresh instance's deadline = %d, want 2Δ = %d", eff.Wake, 20*ms)
	}
	eff := fire(l, 20*ms)
	if eff.Wake != 70*ms || len(eff.Records) != 1 || len(eff.Sends) != cfg.N-1 || eff.Sends[0].Msg.(*SlotMessage).InnerKind != core.KindOneA {
		t.Fatalf("the due fire = %+v, want a new ballot: a promise journaled, a 1A to each peer, the timer 5Δ on", eff)
	}
	// Every fire below comes before slot 3's deadline, at 70 ms.
	for name, stale := range map[string]func() Effects{
		"early": func() Effects { return fire(l, 69*ms) },
		"stopped": func() Effects {
			touch(l, 4, 30*ms)
			l.stop(l.slots[4])
			return fire(l, 50*ms)
		},
		"decided": func() Effects {
			touch(l, 5, 30*ms)
			l.Step(Input{Kind: Deliver, Now: 30 * ms, From: 1, Msg: slotMsg(5, &core.DecideMsg{Value: consensus.IntValue(7)})})
			return fire(l, 50*ms)
		},
		"retired": func() Effects {
			touch(l, 0, 30*ms)
			l.Step(Input{Kind: Retire, Now: 30 * ms, Slot: 1})
			return fire(l, 50*ms)
		},
	} {
		if eff := stale(); !reflect.DeepEqual(eff, Effects{Wake: 70 * ms}) {
			t.Errorf("a fire for a %s deadline = %+v, want no effects but slot 3's deadline", name, eff)
		}
	}
	if eff := fire(New(cfg, time.Millisecond, nil, false, 0), 50*ms); !reflect.DeepEqual(eff, Effects{}) {
		t.Errorf("a fire with nothing armed = %+v, want no effects", eff)
	}
	if got := l.Info().Timeouts; got != 1 {
		t.Fatalf("%d timeouts counted after one due fire and the stale ones", got)
	}
	if eff := fire(l, 70*ms); len(eff.Sends) == 0 || eff.Wake != 120*ms || l.Info().Timeouts != 2 {
		t.Fatalf("the due fire after the stale ones = %+v, %d timeouts", eff, l.Info().Timeouts)
	}
}

// FuzzSlotLog drives process 1 of an n=5 group, leases and auto-grant on,
// with an arbitrary sequence of the log's inputs — messages decoded from the
// fuzz bytes, proposals, fires, gossip, catch-up frames — on a clock that
// never runs back, and checks what must hold whatever arrives: no panic; the
// applied index and the compaction floor never fall; and in every Effects,
// what guards a send or a verdict is in it or behind it — a live instance's
// state is journaled, as a critical record, by the step that moved it, and a
// caller is told a slot applied only once the slot's decision is journaled
// (or a snapshot installed past it); the snapshot a step journals is
// critical exactly when it backs an install — nothing that depends on the
// jump may leave before it is durable — while a periodic one, which restates
// what the journal holds, waits for nothing; Wake is the earliest deadline
// armed, and only a live instance holds one; an auto-grant is proposed only
// at a fire whose Ω reading names process 1 and is stable, and at most one
// is in flight. The seeds under testdata/fuzz are inputs of the replay
// test's capture.
func FuzzSlotLog(f *testing.F) {
	v, _ := Command{ID: "p0-1", Op: OpPut, Key: "k", Val: "v"}.Encode()
	seed := AppendInput(nil, Input{Kind: Propose, Cmds: []Command{{Op: OpPut, Key: "a", Val: "1"}}})
	seed = AppendInput(seed, Input{Kind: Deliver, From: 0, Msg: slotMsg(0, &core.ProposeMsg{Value: v})})
	seed = AppendInput(seed, Input{Kind: Fire, Now: 60 * time.Millisecond.Nanoseconds(), Leader: 1, Stable: true})
	seed = AppendInput(seed, Input{Kind: Gossip, From: 2, Applied: 3})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		leases := &lease.Config{Self: 1, Duration: (300 * time.Millisecond).Nanoseconds(), Epsilon: (30 * time.Millisecond).Nanoseconds()}
		l := New(consensus.Config{ID: 1, N: 5, F: 2, E: 2, Delta: 10}, time.Millisecond, leases, true, 4)
		journaled := map[int]bool{} // slots whose decision is journaled
		installed := -1             // the applied index of the last snapshot installed
		autos := map[int64]bool{}   // the tokens of the auto-grants proposed
		var clock int64
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
			in.Now = max(in.Now, clock)
			clock = in.Now
			applied, floor, installs, granting := l.m.applied, l.floor, l.cu.stats.Installed, l.granting
			eff := l.Step(in)
			if l.granting != 0 && l.granting != granting {
				if in.Kind != Fire || in.Leader != l.cfg.ID || !in.Stable {
					t.Fatalf("an auto-grant proposed at %+v", in)
				}
				autos[l.granting] = true
			}
			wake, riding := l.grantDue, 0
			for n, due := range l.timed {
				if s := l.slots[n]; s == nil || s.node == nil || s.decided {
					t.Fatalf("slot %d holds a deadline with no live instance", n)
				}
				if wake == 0 || due < wake {
					wake = due
				}
			}
			for _, s := range l.slots {
				for _, r := range s.riders {
					if autos[r.token] {
						riding++
					}
				}
			}
			if eff.Wake != wake || riding > 1 {
				t.Fatalf("after %+v: Wake %d, earliest deadline %d; %d auto-grants in flight", in.Kind, eff.Wake, wake, riding)
			}
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
