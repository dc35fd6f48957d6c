// Package slotlog is the deciding half of a replica of internal/smr's log: the
// slot table with each open slot's object-mode core instance, the key-value
// machine the decided values drive, compaction, the command sequence and the
// state transfer between peers. A Log has no goroutine, clock, lock, file or
// socket: each input is one call to Step, with the host clock's reading in
// it, which returns what it calls for — journal records, sends, verdicts for
// waiting callers, snapshots as records, the earliest deadline it holds — for
// its host (smr.Replica) to carry out. The same inputs fed to a fresh Log
// yield the same effects.
package slotlog

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/lease"
)

// RetainSlots and RetainBytes bound the decided tail behind the applied index,
// which a lagging peer is sent as a log suffix. The tail follows the slowest
// peer's gossiped applied index (retireApplied), and these bound what a
// silent or crashed peer pins: a peer further behind is served a snapshot.
const (
	RetainSlots = 4096
	RetainBytes = 16 << 20
)

// Kind names what an Input is. Propose and Wait name their caller in
// Effects.Token; a proposal's commands without an ID get one, and a chunk of
// several is carried as one OpBatch.
type Kind uint8

// The inputs.
const (
	Propose Kind = iota + 1 // a caller proposes Cmds and waits for their slot to apply
	Wait                    // a caller waits for slot Slot to apply
	Cancel                  // caller Token gave up: a proposal it lost is not retried
	Deliver                 // message Msg arrived from From
	Fire                    // the clock passed Wake: Ω names Leader, Stable if it has held still
	Gossip                  // peer From has applied Applied slots
	Recover                 // the journal record Record was read back
	Open                    // recovery is over
	Retire                  // every slot below Slot is retired (a test cutting closer than the gossip)
	Halt                    // the host stops: every caller is closed, and no later input does anything
)

// Input is one thing that happened to the log, at Now on the host's clock
// (nanoseconds). Every field its Kind does not name is zero.
type Input struct {
	Kind    Kind
	Now     int64
	From    consensus.ProcessID
	Msg     consensus.Message
	Cmds    []Command
	Token   int64
	Slot    int
	Leader  consensus.ProcessID
	Stable  bool
	Applied int
	Record  Record
}

// Effects is what one input calls for, in the order the host carries it
// out: Records are journaled, in order (a due snapshot's last); then Sends
// leave once every critical record — of this step or an earlier one — is
// durable, and Verdicts once every record is. Wake is the earliest deadline
// the log holds (0: none), when the host feeds it a Fire. Token is the caller
// a Propose or Wait (or a Fire's auto-grant) registered; Err, a journaled
// state Open could not restore: the log must not run.
type Effects struct {
	Records  []Record
	Sends    []consensus.Send
	Verdicts []Verdict
	Wake     int64
	Token    int64
	Err      error
}

// Record kinds: an instance's durable state, a decision, a snapshot part.
const RecState, RecDecide, RecSnap byte = 's', 'd', 'c'

// Record is one journal record; G is the group its host tags it with.
// Critical marks a record whose loss could break safety: every state record,
// a decision the instance's journaled state does not already imply (decide),
// and a snapshot that backs a catch-up install (adopt). Sends wait for
// critical records; verdicts, which complete callers, wait for every record.
type Record struct {
	Kind     byte
	G        int
	Slot     int
	State    core.State      // RecState
	Val      consensus.Value // RecDecide
	Snap     *Snapshot       // RecSnap, whose Slot is its applied index
	Critical bool
}

// Outcome is how a caller's wait ended.
type Outcome uint8

// The outcomes.
const (
	Applied Outcome = iota + 1 // the slot applied here
	Fenced                     // applied, but proposed here inside a foreign lease's guard
	Closed                     // the log halted first
	Refused                    // a foreign lease's guard stands, held by Holder: not proposed
	Invalid                    // a command has an op with no byte (Command.Encode)
)

// Verdict ends caller Token's wait on slot Slot.
type Verdict struct {
	Token   int64
	Slot    int
	Outcome Outcome
	Holder  int
}

// Snapshot is one record of a checkpoint of the log: Cut is a part of the cut
// a lagging peer would be sent; the last also carries every decided value
// above the applied index, room or not, the sequence and the open slots'
// states. Recovery resets the log to a whole snapshot, and ignores a torn one.
type Snapshot struct {
	Cut   CatchupReply
	Seq   int64
	Slots map[int]core.State
}

// slot is everything the log knows about one log slot, so deleting its
// record retires it. node is the live instance: nil until something touches
// the slot's protocol here, and again once it is decided (learn). persisted
// is node's last journaled state (its baseline right after Start or Restore),
// so steps that change nothing journal nothing.
type slot struct {
	n         int
	node      *core.Node
	decided   bool
	val       consensus.Value
	riders    []rider
	persisted core.State
}

// rider is one caller waiting on a slot: the proposer of want (proposed again
// if another value wins the slot) or, with want None, a waiter for it to
// apply. grant is a lease grant's command ID: grants pass the lease gate.
type rider struct {
	token int64
	want  consensus.Value
	grant string
}

// Log is one replica's log of one consensus group (see the package doc).
// slots holds every slot from the compaction floor up that anything has
// touched: every slot in [floor, applied) is there, decided; timed holds the
// deadline of each one whose timer is armed, tick per protocol tick on. seq
// is the last of this replica's command IDs, never reused. hint is one past
// the newest slot this replica proposed in: concurrent local proposals land
// in distinct slots, or they race for one and the losers pay a conflict
// round. Stragglers below floor are served snapshots; retained sizes the
// decided values the table holds, as a lagging peer is sent those or the
// store, whichever is smaller. A snapshot is due every snapEvery applied
// commands (0: none), and critical after an install; snapAt is the newest
// one's applied index. With auto-grant on, grantDue is its next deadline,
// grantEvery its period and granting the token of its grant in flight (0:
// none). restored holds the journaled states of open slots until Open; eff,
// the step's effects so far.
type Log struct {
	cfg                  consensus.Config
	tick                 int64
	slots                map[int]*slot
	timed                map[int]int64
	m                    kvMachine
	seq                  int64
	hint                 int
	floor, retained      int
	cu                   catchupState
	omega                consensus.FixedLeader // the Ω slot instances read: a Fire's (core reads Ω only in Tick)
	tokens               int64                 // the last caller token handed out
	snapEvery, sinceSnap int
	snapDue, snapInstall bool
	snapAt               int
	restored             map[int]core.State
	halted               bool
	leaseCfg             *lease.Config
	grantEvery, grantDue int64
	granting             int64
	leases               LeaseStats
	timeouts             uint64
	now                  int64
	eff                  Effects
}

// New is an empty log for cfg's process whose timers count ticks of tick.
// With leases it keeps a lease table and, with autoGrant, proposes its own
// grants; a snapshot is due every snapEvery applied commands.
func New(cfg consensus.Config, tick time.Duration, leases *lease.Config, autoGrant bool, snapEvery int) *Log {
	l := &Log{
		cfg:       cfg,
		tick:      tick.Nanoseconds(),
		slots:     make(map[int]*slot),
		timed:     make(map[int]int64),
		m:         kvMachine{n: cfg.N, store: make(map[string]string)},
		cu:        catchupState{peerApplied: make([]int, cfg.N), partial: map[consensus.ProcessID][]*CatchupReply{}},
		snapEvery: snapEvery,
		restored:  map[int]core.State{},
		leaseCfg:  leases,
	}
	if leases != nil {
		l.m.leases = lease.New(*leases)
	}
	if autoGrant && leases != nil {
		// Half the renewal window (a lease's last third): expiry is noticed
		// promptly. The host's clock starts with the log.
		l.grantEvery = max(leases.Duration/6, (5 * time.Millisecond).Nanoseconds())
		l.grantDue = l.grantEvery
	}
	return l
}

// observe, when set, sees each input before a log takes it, and the effects
// it returns after (the replay test).
var observe func(*Log, Input) func(Effects)

// Step takes one input and returns its effects.
func (l *Log) Step(in Input) Effects {
	l.now, l.eff = in.Now, Effects{}
	if l.halted {
		return Effects{}
	}
	var seen func(Effects)
	if observe != nil {
		seen = observe(l, in)
	}
	switch in.Kind {
	case Propose:
		l.propose(in.Cmds)
	case Wait:
		if r := (rider{token: l.newToken(), want: consensus.None}); in.Slot < l.m.applied {
			l.verdict(r.token, in.Slot, Applied, -1)
		} else {
			l.slot(in.Slot).riders = append(l.slot(in.Slot).riders, r)
		}
	case Cancel:
		l.cancel(in.Token)
	case Deliver:
		l.deliver(in.From, in.Msg)
	case Fire:
		l.fire(in.Leader, in.Stable)
	case Gossip:
		l.gossip(in.From, in.Applied)
	case Recover:
		l.recover(in.Record)
	case Open:
		l.open()
	case Retire:
		l.retireBelow(in.Slot)
	case Halt:
		l.halted, l.grantDue = true, 0
		for _, n := range sortedKeys(l.slots) {
			l.release(l.slots[n], Closed)
			l.stop(l.slots[n])
		}
	}
	if l.snapDue {
		l.snapshot()
	}
	l.eff.Wake = l.grantDue
	for _, n := range sortedKeys(l.timed) {
		if l.eff.Wake == 0 || l.timed[n] < l.eff.Wake {
			l.eff.Wake = l.timed[n]
		}
	}
	if seen != nil {
		seen(l.eff)
	}
	return l.eff
}

// propose wraps cmds into one value and places its rider.
func (l *Log) propose(cmds []Command) {
	r := rider{token: l.newToken()}
	for i := range cmds {
		if cmds[i].ID == "" {
			cmds[i].ID = l.nextID("")
		}
	}
	cmd := cmds[0]
	if len(cmds) > 1 {
		// A batch needs its own ID: the value must be distinguishable whole.
		cmd = Command{ID: l.nextID("batch-"), Op: OpBatch, Subs: cmds}
	}
	var err error
	if r.want, err = cmd.Encode(); err != nil {
		l.verdict(r.token, -1, Invalid, -1)
		return
	}
	if cmd.Op == OpLeaseGrant && l.m.leases != nil {
		// The propose-time anchor, before the grant can apply anywhere:
		// every replica's guard window starts at or after it.
		r.grant = cmd.ID
		l.m.leases.NoteProposed(cmd.ID, l.now)
	}
	l.place(r, -1)
}

// newToken names a new caller in the step's effects.
func (l *Log) newToken() int64 {
	l.tokens++
	l.eff.Token = l.tokens
	return l.tokens
}

// nextID is a fresh command ID of this replica's.
func (l *Log) nextID(infix string) string {
	l.seq++
	return fmt.Sprintf("%s-%s%d", l.cfg.ID, infix, l.seq)
}

// place proposes r's value in the smallest slot after prev this replica has
// neither seen decided nor proposed in, unless a foreign lease's guard
// refuses it toward the holder.
func (l *Log) place(r rider, prev int) {
	if r.grant == "" {
		if holder, held := l.Gate(l.now); held {
			l.verdict(r.token, -1, Refused, holder)
			return
		}
	}
	n := max(prev+1, l.m.applied, l.hint)
	for l.decided(n) {
		n++
	}
	l.hint = max(l.hint, n+1)
	s := l.instance(n)
	s.riders = append(s.riders, r)
	l.interpret(s, s.node.Propose(r.want))
	l.persist(s)
}

// cancel forgets caller token's open proposal, and a grant's anchor with it:
// a grant deciding anyway confers no serving rights.
func (l *Log) cancel(token int64) {
	for _, n := range sortedKeys(l.slots) {
		s := l.slots[n]
		for i, r := range s.riders {
			if r.token == token && !s.decided {
				if r.grant != "" {
					l.m.leases.DropProposed(r.grant)
				}
				s.riders = slices.Delete(s.riders, i, i+1)
				return
			}
		}
	}
}

// Gate is the pre-propose lease gate: while a foreign lease is
// conservatively live, this replica refuses the commands it would propose
// (the holder could serve reads that miss them) — definitely, so a caller
// may retry at holder.
func (l *Log) Gate(now int64) (holder int, held bool) {
	t := l.lease(now)
	if t == nil || !t.Guarded(now) {
		return -1, false
	}
	l.leases.Refused++
	return t.GuardHolder(), true
}

func (l *Log) verdict(token int64, slot int, o Outcome, holder int) {
	if token == l.granting {
		l.granting = 0
	}
	l.eff.Verdicts = append(l.eff.Verdicts, Verdict{Token: token, Slot: slot, Outcome: o, Holder: holder})
}

// release ends the wait of every caller on s with o.
func (l *Log) release(s *slot, o Outcome) {
	for _, r := range s.riders {
		l.verdict(r.token, s.n, o, -1)
	}
	s.riders = nil
}

// deliver takes in one message from a peer.
func (l *Log) deliver(from consensus.ProcessID, msg consensus.Message) {
	switch m := msg.(type) {
	case *SlotMessage:
		if m.Slot < l.floor {
			// The sender is working below our compaction floor: the slot
			// is retired, but our snapshot covers it. Not for a Decide: its
			// sender has the decision, and hears of a lag from Status.
			if m.InnerKind != core.KindDecide {
				l.catchupReply(from, m.Slot)
			}
			return
		}
		if s := l.slots[m.Slot]; s != nil && s.decided {
			// Answer with the decision — except to a Decide: the sender has
			// it, and two decided replicas would bounce it forever.
			if m.InnerKind != core.KindDecide {
				l.send(from, wrapSlot(s.n, &core.DecideMsg{Value: s.val}))
			}
			return
		}
		if inner, err := innerCodec.DecodeBody(m.InnerKind, m.InnerBody); err == nil {
			s := l.instance(m.Slot)
			l.interpret(s, s.node.Deliver(from, inner))
			l.persist(s)
		}
	case *CatchupRequest:
		if l.m.applied > m.From {
			l.catchupReply(from, m.From)
		}
	case *CatchupReply:
		l.adopt(from, m)
	}
}

// innerCodec decodes slot-wrapped core messages, for every log.
var innerCodec = func() *consensus.Codec {
	c := consensus.NewCodec()
	core.RegisterMessages(c)
	return c
}()

// fire runs every timer whose deadline has passed, in slot order (a slot an
// earlier Tick decided or retired has none), then the auto-grant's.
func (l *Log) fire(leader consensus.ProcessID, stable bool) {
	l.omega = consensus.FixedLeader(leader)
	for _, n := range sortedKeys(l.timed) {
		if due, ok := l.timed[n]; ok && due <= l.now {
			s := l.slots[n]
			l.stop(s)
			l.timeouts++
			l.interpret(s, s.node.Tick(core.TimerNewBallot))
			l.persist(s)
		}
	}
	if l.grantDue != 0 && l.grantDue <= l.now {
		l.autoGrantLease(leader, stable)
	}
}

// autoGrantLease re-arms the auto-grant a period on, and proposes this
// replica's grant if its lease is due for renewal, the fire's Ω names this
// replica and has held still, and no auto-grant of the log's is in flight:
// one likely grantee per group, so competing grants (each revoking the
// other) stay a transient of leader churn. One that loses its slot is
// proposed again, like any proposal.
func (l *Log) autoGrantLease(leader consensus.ProcessID, stable bool) {
	l.grantDue = l.now + l.grantEvery
	if l.WantsGrant(l.now, l.leaseCfg.Duration/3) && leader == l.cfg.ID && stable && l.granting == 0 {
		l.propose([]Command{Grant(*l.leaseCfg)})
		l.granting = l.tokens
	}
}

func (l *Log) send(to consensus.ProcessID, msg consensus.Message) {
	l.eff.Sends = append(l.eff.Sends, consensus.Send{To: to, Msg: msg})
}

// stop disarms s's timer.
func (l *Log) stop(s *slot) { delete(l.timed, s.n) }

// interpret carries a slot instance's effects into the log's.
func (l *Log) interpret(s *slot, effects []consensus.Effect) {
	for _, eff := range effects {
		switch eff := eff.(type) {
		case consensus.Send:
			l.slotSend(s, eff.To, eff.Msg)
		case consensus.Broadcast:
			// One encode for every destination: the wire form is immutable.
			wire := wrapSlot(s.n, eff.Msg)
			for i := 0; i < l.cfg.N; i++ {
				if to := consensus.ProcessID(i); to != l.cfg.ID {
					l.send(to, wire)
				} else if eff.Self {
					l.slotSend(s, to, eff.Msg)
				}
			}
		case consensus.StartTimer:
			if !s.decided {
				l.timed[s.n] = l.now + int64(eff.After)*l.tick
			}
		case consensus.StopTimer:
			l.stop(s)
		case consensus.Decide:
			l.decide(s, eff.Value)
		}
	}
}

// slotSend sends one slot message, delivering a self-addressed one inline
// (dropped once the step has decided the slot).
func (l *Log) slotSend(s *slot, to consensus.ProcessID, msg consensus.Message) {
	if to != l.cfg.ID {
		l.send(to, wrapSlot(s.n, msg))
	} else if s.node != nil {
		l.interpret(s, s.node.Deliver(to, msg))
	}
}

// persist journals s's instance state if it changed since the last record.
func (l *Log) persist(s *slot) {
	if s.node == nil {
		return
	}
	if st := s.node.Snapshot(); st != s.persisted {
		l.eff.Records = append(l.eff.Records, Record{Kind: RecState, Slot: s.n, State: st, Critical: true})
		s.persisted = st
	}
}

// decide journals s's decision, learns it and applies what is ready; a
// proposal another value beat is proposed again in a later slot. The record
// is critical when the step moved the instance's state in a field other than
// Decided: at a ballot-0 proposer Val does, and a proposer that forgot its own
// fast decision would answer a 1A as undecided, which the recovery rule reads
// as "never decided" (R-exclusion). An acceptor adopting a Decide for its
// vote, and a slow-ballot leader, move nothing else: a later ballot
// re-decides their value from the durable votes.
func (l *Log) decide(s *slot, v consensus.Value) {
	if s.decided {
		return
	}
	critical := false
	if s.node != nil {
		st := s.node.Snapshot()
		st.Decided = s.persisted.Decided
		critical = st != s.persisted
	}
	l.eff.Records = append(l.eff.Records, Record{Kind: RecDecide, Slot: s.n, Val: v, Critical: critical})
	l.learn(s, v)
	var lost []rider
	s.riders = slices.DeleteFunc(s.riders, func(r rider) bool {
		beaten := !r.want.IsNone() && r.want != v
		if beaten {
			lost = append(lost, r)
		}
		return beaten
	})
	l.applyReady()
	for _, r := range lost {
		l.place(r, s.n)
	}
}

// learn records s's decision and retires its instance. Nothing re-announces
// it: a peer that missed the Decide heals by gossip and catch-up, or by its
// own ballot.
func (l *Log) learn(s *slot, v consensus.Value) {
	if s.decided {
		return // read back twice: from its record and a snapshot after it
	}
	l.retained += len(v.Data)
	s.decided, s.val = true, v
	l.stop(s)
	s.node, s.persisted = nil, core.State{}
}

// applyReady is the one place applied advances slot by slot: it applies
// every decided value at the frontier, ends its callers' waits, and retires
// what no peer needs any more.
func (l *Log) applyReady() {
	for s := l.slots[l.m.applied]; s != nil && s.decided; s = l.slots[l.m.applied] {
		ev := l.m.apply(s.val, l.now)
		l.leases.count(ev)
		o := Applied
		if ev.Fenced {
			o = Fenced
		}
		l.release(s, o)
		if l.sinceSnap++; l.snapEvery > 0 && l.sinceSnap >= l.snapEvery {
			l.snapDue = true
		}
	}
	l.retireApplied()
}

// retireApplied raises the compaction floor to the lowest applied index a
// peer last gossiped, within RetainSlots and RetainBytes. A stale or lowered
// index is safe: it only decides whether a request gets a suffix or a
// snapshot.
func (l *Log) retireApplied() {
	floor := l.m.applied
	for p, a := range l.cu.peerApplied {
		if consensus.ProcessID(p) != l.cfg.ID && a < floor {
			floor = a
		}
	}
	l.retireBelow(max(floor, l.m.applied-RetainSlots))
	for l.retained > RetainBytes && l.floor < l.m.applied {
		l.retireBelow(l.floor + 1)
	}
}

// retireBelow discards every slot below floor and raises the compaction
// floor to it, so later traffic there is answered with a snapshot and never
// starts an amnesiac instance in a slot this replica may have voted in. A
// proposal still open in a retired slot is proposed again above the floor;
// a caller waiting for a decided one was jumped over (the floor never passes
// applied), fenced if the guard the jump imported stands.
func (l *Log) retireBelow(floor int) {
	if floor <= l.floor {
		return
	}
	var lost []rider
	retire := func(s *slot) {
		l.stop(s)
		for _, r := range s.riders {
			if !s.decided && !r.want.IsNone() {
				lost = append(lost, r)
			} else if l.m.leases != nil && l.m.leases.Guarded(l.now) {
				l.verdict(r.token, s.n, Fenced, -1)
			} else {
				l.verdict(r.token, s.n, Applied, -1)
			}
		}
		if s.decided {
			l.retained -= len(s.val.Data)
		}
		delete(l.slots, s.n)
	}
	if floor-l.floor <= len(l.slots) {
		// The steady state behind the apply loop.
		for n := l.floor; n < floor; n++ {
			if s := l.slots[n]; s != nil {
				retire(s)
			}
		}
	} else {
		// A snapshot jump past a sparse table.
		for _, n := range sortedKeys(l.slots) {
			if n < floor {
				retire(l.slots[n])
			}
		}
	}
	l.floor = floor
	for _, r := range lost {
		l.place(r, floor-1)
	}
}

// decided reports whether slot n's decision is known here.
func (l *Log) decided(n int) bool {
	s := l.slots[n]
	return s != nil && s.decided
}

// slot returns slot n's record, creating it on first touch.
func (l *Log) slot(n int) *slot {
	s := l.slots[n]
	if s == nil {
		s = &slot{n: n}
		l.slots[n] = s
	}
	return s
}

// instance returns slot n's record with its instance running.
func (l *Log) instance(n int) *slot {
	s := l.slot(n)
	if s.node == nil {
		s.node = core.NewUnchecked(l.cfg, core.ModeObject, core.DefaultOptions(), &l.omega)
		// A fresh instance is its own baseline: untouched slots journal nothing.
		s.persisted = s.node.Snapshot()
		l.interpret(s, s.node.Start())
	}
	return s
}

// snapshot journals the log as it stands, one record a part (Snapshot),
// critical when it backs an install.
func (l *Log) snapshot() {
	for _, p := range l.m.cut(partBytes, l.now, nil) {
		l.eff.Records = append(l.eff.Records, Record{Kind: RecSnap, Slot: p.Applied, Snap: &Snapshot{Cut: *p}, Critical: l.snapInstall})
	}
	last := l.eff.Records[len(l.eff.Records)-1].Snap
	// Every decision: a decided slot has no instance, so one left out would
	// start amnesiac once the journal behind the snapshot is truncated.
	last.Cut.Decided, last.Seq = l.decidedAbove(), l.seq
	open := map[int]core.State{}
	for n, s := range l.slots {
		if s.node != nil && n >= l.m.applied {
			open[n] = s.node.Snapshot()
		}
	}
	if len(open) > 0 {
		last.Slots = open
	}
	l.sinceSnap, l.snapDue, l.snapInstall, l.snapAt = 0, false, false, l.m.applied
}

// decidedAbove is the decided values of the slots at and above the applied
// index, which a cut carries: a peer that missed their Decides learns them.
func (l *Log) decidedAbove() map[int]consensus.Value {
	decided := make(map[int]consensus.Value)
	for n, s := range l.slots {
		if s.decided && n >= l.m.applied {
			decided[n] = s.val
		}
	}
	return decided
}
