package smr_test

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
)

// A decided slot is its value: the instance that reached the decision is
// retired with it, nothing re-announces it, and what used to be the rare
// branch of Handle — a decided slot with no instance — is the common one.
// These tests pin what that branch may say, what recovery may rebuild, and
// what heals a replica that missed the one Decide it is now sent.

func testValue(t *testing.T, key string) consensus.Value {
	t.Helper()
	v, err := smr.Command{ID: "p9-" + key, Op: smr.OpPut, Key: key, Val: "x"}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// slotSends returns the kinds of the captured slot messages for slot, in
// send order.
func (c *captureTr) slotSends(slot int) (kinds []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sent {
		if sm, ok := s.msg.(*smr.SlotMessage); ok && sm.Slot == slot {
			kinds = append(kinds, sm.InnerKind)
		}
	}
	return kinds
}

// TestDecidedSlotDoesNotEchoDecide hands a replica a Decide for a slot it
// already holds the decision of, with no instance behind it. It must send
// nothing: at the parent it answered a Decide with a Decide, and two such
// replicas never stopped. Everything else is still answered with the
// decision, once.
func TestDecidedSlotDoesNotEchoDecide(t *testing.T) {
	const slot = 2 // slots 0 and 1 stay open, so this one is never applied and retired
	v := testValue(t, "echo")
	check := func(t *testing.T, r *smr.Replica, tr *captureTr) {
		t.Helper()
		if got, ok := r.LogValue(slot); !ok || got != v {
			t.Fatalf("slot %d = %v,%t, want the decision", slot, got, ok)
		}
		r.Handle(1, slotMsg(t, slot, &core.DecideMsg{Value: v}))
		r.SyncIO()
		if sent := tr.slotSends(slot); len(sent) != 0 {
			t.Fatalf("a Decide for a decided slot was answered with %v", sent)
		}
		for _, m := range []consensus.Message{&core.TwoB{Value: v}, &core.OneA{Ballot: 4}, &core.ProposeMsg{Value: testValue(t, "late")}} {
			r.Handle(1, slotMsg(t, slot, m))
		}
		r.SyncIO()
		if sent := tr.slotSends(slot); !slices.Equal(sent, []string{core.KindDecide, core.KindDecide, core.KindDecide}) {
			t.Fatalf("a vote, a 1A and a Propose for a decided slot were answered with %v, want one Decide each", sent)
		}
	}

	t.Run("catch-up install", func(t *testing.T) {
		rt, tr := openIsolated(t, 0, "", nil)
		r := rt.Group(0)
		r.Handle(1, &smr.CatchupReply{Store: map[string]string{}, Decided: map[int]consensus.Value{slot: v}})
		check(t, r, tr)
	})
	t.Run("ran the instance", func(t *testing.T) {
		rt, tr := openIsolated(t, 2, "", nil)
		r := rt.Group(0)
		r.Handle(1, slotMsg(t, slot, &core.ProposeMsg{Value: v}))
		r.Handle(1, slotMsg(t, slot, &core.DecideMsg{Value: v}))
		r.SyncIO()
		if sent := tr.slotSends(slot); len(sent) != 1 || sent[0] != core.KindTwoB {
			t.Fatalf("an acceptor sent %v, want its one vote", sent)
		}
		if open := r.Info().OpenSlots; open != 0 {
			t.Fatalf("%d live instances after the only touched slot decided", open)
		}
		tr.mu.Lock()
		tr.sent = nil
		tr.mu.Unlock()
		check(t, r, tr)
	})
	t.Run("restarted from its journal", func(t *testing.T) {
		dir := t.TempDir()
		rt, _ := openIsolated(t, 2, dir, nil)
		rt.Group(0).Handle(1, slotMsg(t, slot, &core.ProposeMsg{Value: v}))
		rt.Group(0).Handle(1, slotMsg(t, slot, &core.DecideMsg{Value: v}))
		rt.Group(0).SyncIO()
		rt.Kill()
		rt, tr := openIsolated(t, 2, dir, nil)
		if recs, _ := rt.Recovery(); recs[0].OpenSlots != 0 {
			t.Fatalf("recovery rebuilt %d instances; the only journaled slot is decided", recs[0].OpenSlots)
		}
		check(t, rt.Group(0), tr)
	})
}

// TestBelowFloorDecideGetsNoSnapshot: a slot message below the compaction
// floor is answered with a snapshot, the only thing left to say about a
// retired slot — except a Decide, whose sender has the decision already. At
// the parent every Decide still in flight for the slots just below a catch-up
// jump or a restart cost a copy of the store, sent to a proposer that is not
// behind and adopts nothing from it.
func TestBelowFloorDecideGetsNoSnapshot(t *testing.T) {
	const slot = 1
	rt, tr := openIsolated(t, 0, "", nil)
	r := rt.Group(0)
	r.Handle(1, &smr.CatchupReply{Applied: 3, Store: map[string]string{"k": "v"}})
	if floor := r.Info().CompactFloor; floor != 3 {
		t.Fatalf("floor %d after a jump to 3", floor)
	}
	snapshots := func() (n int) {
		r.SyncIO()
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, s := range tr.sent {
			if cr, ok := s.msg.(*smr.CatchupReply); ok && s.to == 1 && cr.Applied == 3 {
				n++
			}
		}
		if n != len(tr.sent) {
			t.Fatalf("sent %d messages, %d of them snapshots for the sender", len(tr.sent), n)
		}
		return n
	}
	r.Handle(1, slotMsg(t, slot, &core.DecideMsg{Value: testValue(t, "old")}))
	if n := snapshots(); n != 0 {
		t.Fatalf("a Decide below the floor was answered with %d snapshots", n)
	}
	r.Handle(1, slotMsg(t, slot, &core.ProposeMsg{Value: testValue(t, "late")}))
	if n := snapshots(); n != 1 {
		t.Fatalf("a Propose below the floor was answered with %d snapshots, want 1", n)
	}
}

// TestRecoveredFastDecisionIsNotAnInstance is the case the one-record
// journal must get right. A ballot-0 proposer's last state record predates
// its decision (initialVal set, no vote, undecided); the decision is a
// separate record. Recovery must come back holding the decision and answer
// a 1A with it — an instance restored from the state record would answer
// "undecided, never voted", which the recovery rule takes for proof that
// the value was not decided fast (R-exclusion).
func TestRecoveredFastDecisionIsNotAnInstance(t *testing.T) {
	dir := t.TempDir()
	rt, tr := openIsolated(t, 0, dir, nil)
	r := rt.Group(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := smr.Command{ID: "p0-1", Op: smr.OpPut, Key: "fast", Val: "path"}
	v, err := cmd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Execute(ctx, cmd)
		done <- err
	}()
	// The Propose leaves once its record is durable; then vote for it.
	for deadline := time.Now().Add(5 * time.Second); !slices.Contains(tr.slotSends(0), core.KindPropose); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no Propose left the proposer")
		}
	}
	r.Handle(1, slotMsg(t, 0, &core.TwoB{Value: v})) // n−e = 2: decided
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st, _ := rt.WalStats(); st.NextIndex != 3 {
		t.Fatalf("a fast-path proposer journaled %d records, want 2: its proposal and its decision", st.NextIndex-1)
	}
	rt.Kill()

	rt, tr = openIsolated(t, 0, dir, nil)
	recs, _ := rt.Recovery()
	if recs[0].Applied != 1 || recs[0].OpenSlots != 0 {
		t.Fatalf("recovery = %+v, want the slot applied and no instance", recs[0])
	}
	if v, ok := rt.Get("fast"); !ok || v != "path" {
		t.Fatalf("recovered store has fast=%q,%t", v, ok)
	}
	// Slot 0 is applied, so it is below the floor: a snapshot, never a 1B.
	rt.Group(0).Handle(1, slotMsg(t, 0, &core.OneA{Ballot: 4}))
	rt.Group(0).SyncIO()
	if len(tr.oneBs(t, 0)) != 0 {
		t.Fatal("recovered proposer joined a ballot in the slot it had decided")
	}
}

// TestRecoveryKeepsDecidedOpenSlotAValue is the same property where the
// recovered slot stays in the table (a gap below it keeps it unapplied), on
// the record sequence the proposer of TestRecoveredFastDecisionIsNotAnInstance
// writes: the state record of an undecided instance, then the decision.
func TestRecoveryKeepsDecidedOpenSlotAValue(t *testing.T) {
	dir := t.TempDir()
	v := testValue(t, "gap")
	rt, _ := openIsolated(t, 2, dir, nil)
	r := rt.Group(0)
	r.Handle(1, slotMsg(t, 3, &core.OneA{Ballot: 4})) // a promise: one state record
	r.Handle(0, slotMsg(t, 3, &core.DecideMsg{Value: v}))
	r.SyncIO()
	rt.Kill()

	rt, tr := openIsolated(t, 2, dir, nil)
	if recs, _ := rt.Recovery(); recs[0].OpenSlots != 0 || recs[0].WalRecords != 2 {
		t.Fatalf("recovery = %+v, want two records and no instance", recs[0])
	}
	rt.Group(0).Handle(1, slotMsg(t, 3, &core.OneA{Ballot: 7}))
	rt.Group(0).SyncIO()
	if sent := tr.slotSends(3); len(sent) != 1 || sent[0] != core.KindDecide {
		t.Fatalf("a 1A for a recovered decision was answered with %v, want the Decide", sent)
	}
}

// TestCatchupInstallAppliesOwnDecisions: a replica that decided slot 1 but
// missed slot 0 is handed the prefix by a peer that knows nothing of slot 1.
// The jump must apply slot 1 too — nobody re-announces it any more, so
// nothing else would until the next decision came along.
func TestCatchupInstallAppliesOwnDecisions(t *testing.T) {
	rt, _ := openIsolated(t, 0, "", nil)
	r := rt.Group(0)
	r.Handle(1, &smr.CatchupReply{Store: map[string]string{}, Decided: map[int]consensus.Value{1: testValue(t, "mine")}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	waited := make(chan error, 1)
	go func() { waited <- r.WaitApplied(ctx, 1) }()
	if r.Info().OpenSlots != 0 || r.Applied() != 0 {
		t.Fatalf("before the jump: %+v", r.Info())
	}
	time.Sleep(5 * time.Millisecond) // let the waiter register
	r.Handle(1, &smr.CatchupReply{Applied: 1, Store: map[string]string{"theirs": "y"}})
	if err := <-waited; err != nil {
		t.Fatalf("WaitApplied(1) after the jump: %v", err)
	}
	if r.Applied() != 2 {
		t.Fatalf("applied %d after a jump to 1 with slot 1 decided here, want 2", r.Applied())
	}
	for k, want := range map[string]string{"theirs": "y", "mine": "x"} {
		if got, _ := r.Get(k); got != want {
			t.Fatalf("%s = %q, want %q", k, got, want)
		}
	}
}

// TestDecideEchoDiesOutBetweenRestartedReplicas is the echo on a live
// fabric: two processes hold the same decision with no instance behind it
// (learned by catch-up, then restarted from their journals). A stray vote
// for that slot costs one answer; a stray Decide costs nothing. At the
// parent either started an exchange that never ended.
func TestDecideEchoDiesOutBetweenRestartedReplicas(t *testing.T) {
	const slot = 5
	v := testValue(t, "echo")
	c := newTestCluster(t, 3, 1, 1, procOptions{dur: durableUnder(t.TempDir(), nil)})
	for i := 0; i < 2; i++ {
		c.rts[i].Group(0).Handle(2, &smr.CatchupReply{Store: map[string]string{}, Decided: map[int]consensus.Value{slot: v}})
	}
	var seen atomic.Int64
	for i := 0; i < 2; i++ {
		c.restart(i)
		c.tap(i, func(msg consensus.Message) {
			if sm, ok := inner(msg).(*smr.SlotMessage); ok && sm.Slot == slot {
				seen.Add(1)
			}
		})
	}
	settle := func(want int64, what string) {
		t.Helper()
		time.Sleep(100 * time.Millisecond) // 10Δ: thousands of bounces at the parent
		if got := seen.Load(); got != want {
			t.Fatalf("%s: %d messages for slot %d crossed the fabric, want %d", what, got, slot, want)
		}
	}
	c.rts[0].Group(0).Handle(1, slotMsg(t, slot, &core.TwoB{Value: v}))
	settle(1, "after a stray vote")
	c.rts[0].Group(0).Handle(1, slotMsg(t, slot, &core.DecideMsg{Value: v}))
	settle(1, "after a stray Decide")
}

// decideDropper sits in front of one process's handler and loses every
// Decide for one slot while drop says so — the slot's broadcast and any
// reactive answer alike.
type decideDropper struct {
	slot    atomic.Int64 // the slot being starved; -1: none
	drop    func() bool
	dropped atomic.Int64
	replies atomic.Int64 // catch-up replies let through
	status  atomic.Int64 // UnixNano of the first Status ahead of the slot
	noCatch bool         // also lose every catch-up reply
}

func (d *decideDropper) wrap(h transport.Handler) transport.Handler {
	return func(from consensus.ProcessID, msg consensus.Message) {
		switch m := inner(msg).(type) {
		case *smr.SlotMessage:
			if int64(m.Slot) == d.slot.Load() && m.InnerKind == core.KindDecide && d.drop() {
				d.dropped.Add(1)
				return
			}
		case *shard.Status:
			if s := d.slot.Load(); s >= 0 && int64(m.Applied[0]) > s {
				d.status.CompareAndSwap(0, time.Now().UnixNano())
			}
		case *smr.CatchupReply:
			if d.noCatch {
				return
			}
			d.replies.Add(1)
		}
		h(from, msg)
	}
}

// TestDroppedDecideHealsWithoutReannouncement is the liveness side of
// retiring the instance at decide: nobody repeats a Decide any more, so a
// replica that voted in a slot and never hears its decision has to get
// there by the per-replica anti-entropy — or, when it is the Ω-leader, by
// the ballot its own undecided instance starts.
func TestDroppedDecideHealsWithoutReannouncement(t *testing.T) {
	const delta = 10 * time.Millisecond // Δ: 10 ticks of 1 ms
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// Process 1 proposes; every process holds 0 for the leader.
	boot := func(t *testing.T, o procOptions) (*testCluster, int) {
		c := newTestCluster(t, 3, 1, 1, o)
		if err := c.replicas()[1].Put(ctx, "warm", "up"); err != nil {
			t.Fatal(err)
		}
		for i, rt := range c.rts {
			c.waitApplied(i, 1, 5*time.Second)
			for deadline := time.Now().Add(5 * time.Second); rt.Leader() != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("process %d holds %d for the leader", i, rt.Leader())
				}
			}
		}
		return c, c.replicas()[1].Applied()
	}

	t.Run("acceptor: status, catch-up request, catch-up reply", func(t *testing.T) {
		c, slot := boot(t, procOptions{})
		d := &decideDropper{drop: func() bool { return true }}
		d.slot.Store(int64(slot))
		c.fab.Attach(2, d.wrap(c.rts[2].Handler()))
		if err := c.replicas()[1].Put(ctx, "k", "v"); err != nil {
			t.Fatal(err)
		}
		c.waitApplied(2, slot+1, 5*time.Second)
		healed := time.Now().UnixNano()
		if d.dropped.Load() == 0 || d.replies.Load() == 0 {
			t.Fatalf("%d Decides dropped, %d catch-up replies: the slot did not heal the way this test is about", d.dropped.Load(), d.replies.Load())
		}
		if took := time.Duration(healed - d.status.Load()); d.status.Load() == 0 || took > 10*delta {
			t.Fatalf("applied %v after the first Status ahead of it, want under 10Δ = %v", took, 10*delta)
		}
		if v, _ := c.replicas()[2].Get("k"); v != "v" {
			t.Fatalf("healed replica has k=%q", v)
		}
	})

	t.Run("leader: own ballot timer, reactive answer", func(t *testing.T) {
		var sentOneA atomic.Bool
		d := &decideDropper{drop: func() bool { return !sentOneA.Load() }, noCatch: true}
		d.slot.Store(-1)
		c, slot := boot(t, procOptions{bind0: func(tr transport.Transport) transport.Transport {
			return sendTap{tr, func(msg consensus.Message) {
				if sm, ok := inner(msg).(*smr.SlotMessage); ok && int64(sm.Slot) == d.slot.Load() && sm.InnerKind == core.KindOneA {
					sentOneA.Store(true)
				}
			}}
		}})
		d.slot.Store(int64(slot))
		c.fab.Attach(0, d.wrap(c.rts[0].Handler()))
		start := time.Now()
		if err := c.replicas()[1].Put(ctx, "k", "v"); err != nil {
			t.Fatal(err)
		}
		c.waitApplied(0, slot+1, 5*time.Second)
		took := time.Since(start)
		if d.dropped.Load() == 0 || !sentOneA.Load() {
			t.Fatalf("%d Decides dropped, 1A sent: %t: the slot did not heal through the leader's ballot", d.dropped.Load(), sentOneA.Load())
		}
		// 2Δ to the timer, one exchange, and a loaded runner's slack.
		if took > 10*delta {
			t.Fatalf("the leader applied the slot %v after the write, want under 10Δ = %v", took, 10*delta)
		}
	})
}

// sendTap shows a test every message a process hands to its transport.
type sendTap struct {
	transport.Transport
	see func(consensus.Message)
}

func (s sendTap) Send(to consensus.ProcessID, msg consensus.Message) error {
	s.see(msg)
	return s.Transport.Send(to, msg)
}

// TestDecidedSlotReleasesItsTimer: a decided slot's record lives on until
// every peer is known to have applied it (for retainSlots, behind a silent
// one), and its stopped new-ballot timer must not live on with it — the
// *time.Timer's callback holds the slot's closures, some 300 B a slot on
// every replica for as long as the record is kept.
func TestDecidedSlotReleasesItsTimer(t *testing.T) {
	c := newTestCluster(t, 3, 1, 1, procOptions{})
	c.pinLogs() // the records are what is counted
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const writes = 20
	kv := c.replicas()[1]
	for i := 0; i < writes; i++ {
		if err := kv.Put(ctx, "k", "v"); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range c.replicas() {
		c.waitApplied(i, writes, 5*time.Second)
		if decided, timers := r.DecidedSlotTimers(); decided < writes || timers != 0 {
			t.Fatalf("process %d: %d decided slots, %d of them still hold a timer", i, decided, timers)
		}
	}
}
