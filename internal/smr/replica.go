package smr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/transport"
)

// ErrClosed is returned by operations on a closed replica.
var ErrClosed = errors.New("smr: replica closed")

// KindSlot is the wire kind of slot-wrapped consensus traffic.
const KindSlot = "smr.slot"

// SlotMessage carries one core-protocol message for one log slot.
type SlotMessage struct {
	Slot      int
	InnerKind string
	InnerBody []byte
}

// Kind implements consensus.Message.
func (SlotMessage) Kind() string { return KindSlot }

// AppendBody implements consensus.Message: the slot, the inner kind, and the
// inner body as the rest of the bytes.
func (m *SlotMessage) AppendBody(dst []byte) []byte {
	dst = consensus.AppendVarint(dst, int64(m.Slot))
	return append(consensus.AppendStr(dst, m.InnerKind), m.InnerBody...)
}

// DecodeBody implements consensus.Message. InnerBody is a window of body, not
// a copy: Handle decodes it before it returns.
func (m *SlotMessage) DecodeBody(body []byte) error {
	d := consensus.NewDecoder(body)
	m.Slot, m.InnerKind, m.InnerBody = int(d.Varint()), d.Str(), d.Rest()
	return d.Finish()
}

// RegisterMessages registers the smr (and required inner) kinds with codec.
func RegisterMessages(codec *consensus.Codec) {
	codec.MustRegister(KindSlot, func() consensus.Message { return &SlotMessage{} })
	codec.MustRegister(KindCatchupRequest, func() consensus.Message { return &CatchupRequest{} })
	codec.MustRegister(KindCatchupReply, func() consensus.Message { return &CatchupReply{} })
}

// innerCodec decodes slot-wrapped core messages: one for every replica, as a
// codec is never written after its registrations.
var innerCodec = func() *consensus.Codec {
	c := consensus.NewCodec()
	core.RegisterMessages(c)
	return c
}()

// retainSlots and retainBytes bound the decided tail behind the applied index,
// which a lagging peer is sent as a log suffix. The tail follows the slowest
// peer's gossiped applied index (retireAppliedLocked) — about one gossip
// period of slots in a healthy group — and these bound what a silent or
// crashed peer pins: 4096 slots or 16 MiB of values, whichever is less (a slot
// is a chunk of up to 32 commands of up to 256 KiB, so the count alone bounds
// nothing). A peer further behind is served a snapshot. Constants, not options.
const (
	retainSlots = 4096
	retainBytes = 16 << 20
)

// timer is one re-armable host timer (see armLocked). gen moves on every
// arm and stop, so a callback that already fired but lost the race for
// Replica.mu finds a stale generation and does nothing.
type timer struct {
	t   *time.Timer
	gen int64
}

// stop also lets go of the *time.Timer: its callback holds the slot's
// closures, and a decided slot's record outlives its timer by retainSlots.
func (tm *timer) stop() {
	tm.gen++
	if tm.t != nil {
		tm.t.Stop()
		tm.t = nil
	}
}

// slot is everything the host knows about one log slot: the consensus
// instance deciding it, the decision, the callers blocked on it, its timer,
// and its durable and lease bookkeeping. One record in Replica.slots is the
// whole of a slot's state, so deleting the record retires the slot.
type slot struct {
	n int
	// node is the live instance: nil until something touches the slot's
	// protocol here, and again once it is decided (learn, Handle).
	node *core.Node

	decided bool
	val     consensus.Value

	waiters      []chan consensus.Value // Execute callers; each has capacity 1
	applyWaiters []*applyWaiter

	timer timer // node's new-ballot timer, the only one core arms
	// persisted is node's last journaled state (its baseline right after
	// Start or Restore), so steps that change nothing append nothing.
	persisted core.State
}

// applyWaiter is one caller blocked until a slot applies. Whoever detaches it
// from the slot's record fills in the verdict — applied, and inside a foreign
// lease's guard or not — before done is closed: the caller needs nothing of
// the record, which may be retired by then. haltLocked closes done unapplied.
type applyWaiter struct {
	done            chan struct{}
	applied, fenced bool
}

func (w *applyWaiter) wait(ctx context.Context) (fenced bool, err error) {
	select {
	case <-w.done:
		if !w.applied {
			return false, ErrClosed
		}
		return w.fenced, nil
	case <-ctx.Done():
		return false, fmt.Errorf("smr wait applied: %w", ctx.Err())
	}
}

// learnLocked records s's decision and retires the instance that reached it,
// timer and journal baseline included. Nothing re-announces it: a peer that
// missed the Decide heals by Status gossip and catch-up, or by its own ballot.
func (r *Replica) learnLocked(s *slot, v consensus.Value) {
	r.retainedBytes += len(v.Data)
	s.decided, s.val = true, v
	s.timer.stop()
	s.node, s.persisted = nil, core.State{}
}

// Replica is one process's member of one consensus group of the replicated
// state machine. It hosts one object-mode core consensus instance per log
// slot and hands the decided values, in slot order, to its key-value machine
// (m, see kvMachine). It is never a process by itself: shard.Runtime builds
// one per group and owns everything a process has one of — the WAL, the I/O
// scheduler that commits it, the transport, Ω and the applied-index gossip
// (see NewReplica).
//
// The slot record is the unit: slots holds every slot from compactFloor up
// that anything has touched, and nothing else in the replica is keyed by
// slot number. Replica.mu guards that table together with what orders it —
// the machine and its applied index, the compaction floor, the proposal hint —
// plus the lease timer, the durability watermarks and the step's pending
// wakeups. It is held for in-memory work only: every send, fsync and caller
// wakeup leaves through the outbox (emitLocked). The batcher carries its own
// mutex, taken before mu, never under it.
type Replica struct {
	cfg     consensus.Config
	tick    time.Duration
	leaders LeaderView

	mu    sync.Mutex
	tr    transport.Transport
	slots map[int]*slot
	m     kvMachine
	seq   int64 // the last of this replica's command IDs, never reused

	// closed: the replica refuses work — Close, Kill, or a journaling
	// failure poisoned it (haltLocked). released: Close or Kill has run the
	// teardown that stops the batcher and drains this replica's entries out
	// of the I/O scheduler. Separate, so a poisoned replica can still be
	// closed.
	closed   bool
	released bool

	// propHint is one past the newest slot this replica proposed in:
	// concurrent local Executes must land in distinct slots, or they all race
	// for the same one and the losers pay a conflict round (with I/O off the
	// lock the race window is the whole pipeline, not just the in-lock step,
	// so this is load-bearing for parallel submits).
	propHint int

	// Out-of-lock I/O (see outbox.go). io is the process's one scheduler,
	// owned by whoever built the replica. wakes accumulates the wakeups of
	// the current locked step; emitLocked drains it into the outbox.
	io    *IOScheduler
	wakes []wakeup

	// compactFloor is the lowest slot the table may hold: everything below
	// has been retired (retireBelowLocked) and stragglers there are served
	// snapshots. Every slot in [compactFloor, applied) is in the table,
	// decided. retainedBytes sizes the decided values the table holds: a
	// lagging peer is sent those or the store, whichever is smaller. cu is the
	// peers' progress and this replica's state transfer (catchup.go).
	compactFloor  int
	retainedBytes int
	cu            catchupState

	// batch groups Submit traffic — writes and read barriers alike — into
	// OpBatch commands.
	batch *batcher

	// dur, when non-nil, journals slot state to a WAL and checkpoints the
	// applied store into snapshots (see durability.go).
	dur *durable

	// ls, when non-nil, serves and renews the replicated leader lease whose
	// table the machine applies (see lease.go).
	ls *leaseState
}

// LeaderView is the process's Ω as a group reads it: the estimate every
// slot's instance consults, and whether it has held still long enough for the
// lease timer to volunteer. Reads only, safe from any goroutine; whoever owns
// the detector behind it (shard.Runtime) feeds it.
type LeaderView interface {
	consensus.LeaderOracle
	LeaderStable(minPeriods int64) bool
}

// ReplicaOptions is what a replica may be built with beyond its group's
// configuration: each part is on when non-nil.
type ReplicaOptions struct {
	// Leases enables replicated leader leases (see LeaseOptions).
	Leases *LeaseOptions
	// Durability journals the replica to a WAL and recovers it from there
	// and its snapshots (see DurabilityOptions).
	Durability *DurabilityOptions
}

// NewReplica builds one consensus group's replica on io and leaders, the
// scheduler and the Ω its host (shard.Runtime) owns and shares between every
// group of the process — as it owns the WAL behind opts.Durability's Journal
// and the transport behind BindTransport: the replica uses all four and
// closes none. A durable replica's records are committed by io, so io must
// have been built on the log its Journal writes to; one built without a log
// is refused. Call BindTransport, then Start. A configuration below the
// paper's bound for a consensus object (Theorem 6: quorum.Check) is refused
// with quorum.ErrInfeasible; flexible quorum sizes (cfg.FastSize/
// cfg.RecoverySize, see internal/quorum.NewFlex) are checked against theirs
// instead and honored by every slot's core node. tick is the length of one
// protocol tick — a slot's new-ballot timer counts in it, as the host's Ω and
// gossip periods do — and must be positive: a zero period re-arms a timer
// immediately and floods the fabric.
//
// The replica is built in the one order that works: the lease table first,
// because recovery replays grant commands into it (a replayed own grant
// confers no serving rights, a replayed foreign one raises the guard); then
// the write batcher every Submit goes through; then, with durability,
// recovery (see recoverFrom), whose report is the RecoveryInfo. A refused
// construction leaves nothing running.
func NewReplica(cfg consensus.Config, tick time.Duration, io *IOScheduler, leaders LeaderView, opts ReplicaOptions) (*Replica, RecoveryInfo, error) {
	if err := cfg.Validate(); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("smr: %w", err)
	}
	if !cfg.Flexible() {
		if err := quorum.Check(quorum.Object, cfg.N, cfg.F, cfg.E); err != nil {
			return nil, RecoveryInfo{}, fmt.Errorf("smr: %w", err)
		}
	}
	if tick <= 0 {
		return nil, RecoveryInfo{}, fmt.Errorf("smr: tick must be positive, got %v", tick)
	}
	if opts.Durability != nil && io.log == nil {
		return nil, RecoveryInfo{}, fmt.Errorf("smr: a durable replica on a scheduler without a log: nothing would commit its records")
	}
	r := &Replica{
		cfg:     cfg,
		tick:    tick,
		leaders: leaders,
		slots:   make(map[int]*slot),
		m:       kvMachine{n: cfg.N, store: make(map[string]string)},
		io:      io,
		cu:      catchupState{peerApplied: make([]int, cfg.N), partial: map[consensus.ProcessID][]*CatchupReply{}},
	}
	if opts.Leases != nil {
		ls, err := newLeaseState(*opts.Leases)
		if err != nil {
			return nil, RecoveryInfo{}, err
		}
		r.ls = ls
		r.m.leases = ls.table(cfg.ID)
	}
	r.batch = &batcher{replica: r, maxSize: maxChunk, poke: make(chan struct{}, 1)}
	var info RecoveryInfo
	if opts.Durability != nil {
		var err error
		if info, err = r.recoverFrom(*opts.Durability); err != nil {
			return nil, RecoveryInfo{}, err
		}
	}
	return r, info, nil
}

// currentTransport reads the bound transport under the lock (the outbox
// consumer reloads it per entry owner so Kill's detach is respected).
func (r *Replica) currentTransport() transport.Transport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tr
}

// BindTransport installs the transport (which should deliver to Handle).
func (r *Replica) BindTransport(tr transport.Transport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr = tr
}

// Start arms the lease timer, if the group auto-grants. Slots start lazily
// on first touch.
func (r *Replica) Start() {
	r.mu.Lock()
	if r.ls != nil && r.ls.opts.AutoGrant {
		r.scheduleLeaseLocked()
	}
	r.mu.Unlock()
}

// armLocked (re)arms tm: after d, fn runs under r.mu — unless the replica
// closed, or tm was re-armed or stopped, in the meantime. What fn returns,
// if anything, runs after the unlock: a timer's blocking tail (an fsync, a
// proposal) must not hold the lock.
func (r *Replica) armLocked(tm *timer, d time.Duration, fn func() (unlocked func())) {
	tm.stop()
	gen := tm.gen
	tm.t = time.AfterFunc(d, func() {
		r.mu.Lock()
		var unlocked func()
		if !r.closed && tm.gen == gen {
			unlocked = fn()
		}
		r.mu.Unlock()
		if unlocked != nil {
			unlocked()
		}
	})
}

// Handle is the transport handler.
func (r *Replica) Handle(from consensus.ProcessID, msg consensus.Message) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	var out []outbound
	switch m := msg.(type) {
	case *SlotMessage:
		if m.Slot < r.compactFloor {
			// The sender is working below our compaction floor: the
			// slot is retired, but our snapshot covers it. Not for a Decide:
			// its sender has the decision, and hears of a lag from Status.
			if m.InnerKind != core.KindDecide {
				out = r.catchupReplyLocked(from, m.Slot)
			}
			break
		}
		if s := r.slots[m.Slot]; s != nil && s.decided {
			// Answer with the decision — except to a Decide: the sender has
			// it, and two decided replicas would bounce it forever.
			if m.InnerKind != core.KindDecide {
				out = wrapSlot(s.n, &core.DecideMsg{Value: s.val}).sendTo(from)
			}
			break
		}
		inner, err := innerCodec.DecodeBody(m.InnerKind, m.InnerBody)
		if err == nil {
			s := r.instanceLocked(m.Slot)
			out = r.applySlotLocked(s, s.node.Deliver(from, inner))
			if !r.persistSlotLocked(s) {
				out = nil
			}
		}
	case *CatchupRequest:
		if r.m.applied > m.From {
			out = r.catchupReplyLocked(from, m.From)
		}
	case *CatchupReply:
		out = r.adoptLocked(from, m)
	}
	r.emitLocked(out)
	r.mu.Unlock()
}

// cutLocked is the machine's cut (kvMachine.cut) with the decided values of
// the slots still open here, so a peer that missed their Decides learns them
// without re-running those slots.
func (r *Replica) cutLocked(limit int) []*CatchupReply {
	decided := make(map[int]consensus.Value)
	for n, s := range r.slots {
		if s.decided && n >= r.m.applied {
			decided[n] = s.val
		}
	}
	return r.m.cut(limit, r.ls.now(), decided)
}

// retireBelowLocked discards every slot below floor — instance, timer,
// decision, journal baseline, all in the one record — and
// raises the compaction floor to it, so Handle answers later traffic for
// those slots with a snapshot and never starts an amnesiac instance in a
// slot this replica may have voted in. Callers still blocked on a retired
// slot cannot learn its outcome from us any more: ⊥ tells Execute to retry
// in a fresh slot, queued as a wakeup so it happens off the critical
// section. A WaitApplied caller still there was jumped over (the floor never
// passes applied): its slot applied elsewhere, fenced if the guard the jump
// imported stands. Returns the floor in force; lowering it is a no-op.
func (r *Replica) retireBelowLocked(floor int) int {
	if floor <= r.compactFloor {
		return r.compactFloor
	}
	wk := wakeup{v: consensus.None}
	retire := func(s *slot) {
		s.timer.stop()
		wk.chs = append(wk.chs, s.waiters...)
		for _, w := range s.applyWaiters {
			w.applied, w.fenced = true, r.ls != nil && r.m.leases.Guarded(r.ls.now())
			wk.done = append(wk.done, w.done)
		}
		if s.decided {
			r.retainedBytes -= len(s.val.Data)
		}
		delete(r.slots, s.n)
	}
	if floor-r.compactFloor <= len(r.slots) {
		// The steady state behind the apply loop: the table holds no slot
		// below the old floor, so the retired range is all there is to visit.
		for n := r.compactFloor; n < floor; n++ {
			if s := r.slots[n]; s != nil {
				retire(s)
			}
		}
	} else {
		// A snapshot jump past a sparse table.
		for n, s := range r.slots {
			if n < floor {
				retire(s)
			}
		}
	}
	r.compactFloor = floor
	if len(wk.chs) > 0 || len(wk.done) > 0 {
		r.wakes = append(r.wakes, wk)
	}
	return floor
}

// Submit replicates cmd and returns once it is decided and applied at this
// replica, or when ctx is done (the command may still commit afterwards).
// Submits arriving together — writes and ReadBarrier's no-ops, the batcher
// does not tell them apart — are grouped into one instance (see batcher); an
// OpBatch rides as one command, so its writes share one slot.
func (r *Replica) Submit(ctx context.Context, cmd Command) error {
	if cmd.ID == "" {
		cmd.ID = r.nextID()
	}
	return r.batch.executeBatched(ctx, cmd)
}

// nextID is a fresh command ID of this replica's.
func (r *Replica) nextID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return fmt.Sprintf("%s-%d", r.cfg.ID, r.seq)
}

// Execute proposes cmd by itself, past the batcher, and blocks until a slot
// decides it, returning the slot index. It retries in subsequent slots when a
// competing command wins.
func (r *Replica) Execute(ctx context.Context, cmd Command) (int, error) {
	if cmd.ID == "" {
		cmd.ID = r.nextID()
	}
	want, err := cmd.Encode()
	if err != nil {
		return 0, err
	}
	p, err := r.propose(cmd.Op, want, -1, nil)
	if err == nil {
		p, err = r.await(ctx, cmd.Op, want, p)
	}
	return p.slot, err
}

// proposal is one value proposed in one slot: what propose hands to await.
type proposal struct {
	slot int
	// decided receives the slot's decision, or is closed if the replica
	// halts first.
	decided chan consensus.Value
	// applied is in the slot's record before the slot can apply, and retire.
	applied *applyWaiter
}

// propose is Execute's first half, in memory under r.mu: it picks the
// smallest free slot after prev, proposes want there, journals the step and
// emits it — and waits for none of that I/O, so a caller that proposes
// again at once (the batcher's flusher) takes slots in call order. sent,
// when non-nil, is closed once the step's outbox entry has been processed:
// its journal records committed, the Propose handed to the transport. On an
// error nothing was proposed and sent is never closed.
func (r *Replica) propose(op Op, want consensus.Value, prev int, sent chan struct{}) (proposal, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return proposal{}, ErrClosed
	}
	if op != OpLeaseGrant {
		// Pre-propose lease gate (definite refusal with holder hint);
		// re-checked per retry — a grant can apply between rounds.
		if err := r.leaseRefuseLocked(); err != nil {
			return proposal{}, err
		}
	}
	n := r.nextFreeSlotLocked(prev)
	s := r.instanceLocked(n)
	if n >= r.propHint {
		r.propHint = n + 1
	}
	out := r.applySlotLocked(s, s.node.Propose(want))
	if !r.persistSlotLocked(s) {
		return proposal{}, ErrClosed
	}
	p := proposal{slot: n, decided: make(chan consensus.Value, 1), applied: &applyWaiter{done: make(chan struct{})}}
	s.waiters = append(s.waiters, p.decided)
	s.applyWaiters = append(s.applyWaiters, p.applied)
	r.emitDoneLocked(out, sent)
	return p, nil
}

// await is Execute's second half: it blocks until p's slot decides and
// returns the proposal want won with, proposing again in a later slot for as
// long as a competing command wins instead.
func (r *Replica) await(ctx context.Context, op Op, want consensus.Value, p proposal) (proposal, error) {
	for {
		select {
		case v := <-p.decided:
			if v == want {
				return p, nil
			}
			// A competing command won this slot (or the replica halted and
			// propose says so); try the next.
		case <-ctx.Done():
			return proposal{}, fmt.Errorf("smr execute: %w", ctx.Err())
		}
		var err error
		if p, err = r.propose(op, want, p.slot, nil); err != nil {
			return proposal{}, err
		}
	}
}

// acked is what an acknowledgement needs on top of the decision await
// returned: the slot applied to the local store, and the verdict of the
// lease table as it applied.
func (r *Replica) acked(ctx context.Context, p proposal) error {
	fenced, err := p.applied.wait(ctx)
	if err == nil && fenced {
		// Decided and applied — but a lease grant in an earlier slot beat
		// it there, so the holder may have served reads that miss it. The
		// ack is downgraded to ambiguous (see ErrLeaseFenced).
		err = ErrLeaseFenced
	}
	return err
}

// decidedLocked reports whether slot n's decision is known here.
func (r *Replica) decidedLocked(n int) bool {
	s := r.slots[n]
	return s != nil && s.decided
}

// nextFreeSlotLocked returns the smallest slot after prev this replica has
// neither seen decided nor already proposed in. The applied index bounds the
// scan from below — every slot under it is decided — so the loop is O(1)
// amortized instead of rescanning from prev on every contended submit.
// propHint keeps concurrent local proposals out of each other's slots.
func (r *Replica) nextFreeSlotLocked(prev int) int {
	n := max(prev+1, r.m.applied, r.propHint)
	for r.decidedLocked(n) {
		n++
	}
	return n
}

// Applied returns the number of log slots applied to the store.
func (r *Replica) Applied() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m.applied
}

// LogValue returns the decided value of a slot, if any (retired slots
// report false).
func (r *Replica) LogValue(slot int) (consensus.Value, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.slots[slot]; s != nil && s.decided {
		return s.val, true
	}
	return consensus.Value{}, false
}

// haltLocked makes the replica refuse work from here on and releases every
// caller still registered in the slot table: Execute and WaitApplied map
// the closed channels to ErrClosed. It is the only place those channels
// are closed. Channels a queued wakeup owns were detached from the table
// at queue time and are the outbox consumer's to fire — never both, so no
// channel is closed twice, and a second haltLocked (Close after a
// poisoning) finds nothing left to release.
func (r *Replica) haltLocked() {
	r.closed = true
	if r.ls != nil {
		r.ls.timer.stop()
	}
	for _, s := range r.slots {
		s.timer.stop()
		for _, ch := range s.waiters {
			close(ch)
		}
		for _, w := range s.applyWaiters {
			close(w.done)
		}
		s.waiters, s.applyWaiters = nil, nil
	}
}

// Close stops timers and drains the replica's queued I/O: when it returns,
// every entry this replica emitted has been committed, sent and woken. The
// WAL, the scheduler and the transport stay open — they belong to the host,
// which syncs and closes them once, after every group (shard.Runtime.Close).
// It also works on a replica a journaling failure already poisoned.
func (r *Replica) Close() { r.shutdown(false) }

// shutdown is the one teardown behind Close and Kill. It runs once, also
// on a replica that was poisoned first: refusing work (closed) and having
// drained (released) are separate facts. crash is Kill's one difference:
// the transport is detached under the lock, so entries still queued send
// nothing.
func (r *Replica) shutdown(crash bool) {
	r.mu.Lock()
	if r.released {
		r.mu.Unlock()
		return
	}
	r.released = true
	r.haltLocked()
	if crash {
		// The outbox consumer reloads the transport per entry owner.
		r.tr = nil
	}
	r.mu.Unlock()

	r.batch.close()
	// FIFO: everything this replica queued is ahead of the barrier.
	r.io.barrier()
}

// slotLocked returns slot n's record, creating it on first touch.
func (r *Replica) slotLocked(n int) *slot {
	s := r.slots[n]
	if s == nil {
		s = &slot{n: n}
		r.slots[n] = s
	}
	return s
}

// instanceLocked returns slot n's record with its consensus instance
// running, starting one on first touch.
func (r *Replica) instanceLocked(n int) *slot {
	s := r.slotLocked(n)
	if s.node == nil {
		s.node = core.NewUnchecked(r.cfg, core.ModeObject, core.DefaultOptions(), r.leaders)
		// A brand-new instance is reproducible by the absence of records,
		// so its state is the baseline: untouched slots journal nothing.
		s.persisted = s.node.Snapshot()
		// Start only arms the new-ballot timer in the core protocol:
		// nothing to send or flush.
		r.applySlotLocked(s, s.node.Start())
	}
	return s
}

// outbound is a deferred transport send.
type outbound struct {
	to  consensus.ProcessID
	msg consensus.Message
}

// applySlotLocked interprets a slot instance's effects.
func (r *Replica) applySlotLocked(s *slot, effects []consensus.Effect) []outbound {
	var out []outbound
	for _, eff := range effects {
		switch eff := eff.(type) {
		case consensus.Send:
			out = append(out, r.slotSendLocked(s, eff.To, eff.Msg)...)
		case consensus.Broadcast:
			// One encode for every destination: the wire form is immutable.
			wire := wrapSlot(s.n, eff.Msg)
			for i := 0; i < r.cfg.N; i++ {
				to := consensus.ProcessID(i)
				if to != r.cfg.ID {
					out = append(out, outbound{to: to, msg: wire})
				} else if eff.Self {
					out = append(out, r.slotSendLocked(s, to, eff.Msg)...)
				}
			}
		case consensus.StartTimer:
			id := eff.Timer
			r.armLocked(&s.timer, time.Duration(eff.After)*r.tick, func() func() {
				fired := r.applySlotLocked(s, s.node.Tick(id))
				if !r.persistSlotLocked(s) {
					fired = nil
				}
				r.emitLocked(fired)
				return nil
			})
		case consensus.StopTimer:
			s.timer.stop()
		case consensus.Decide:
			before := r.m.applied
			r.decideLocked(s, eff.Value)
			r.maybeSnapshotLocked(r.m.applied - before)
		}
	}
	return out
}

// slotSendLocked routes one slot message: self-addressed ones are delivered
// inline (dropped once the step has decided the slot), the rest go out wrapped.
func (r *Replica) slotSendLocked(s *slot, to consensus.ProcessID, msg consensus.Message) []outbound {
	if to == r.cfg.ID {
		if s.node == nil {
			return nil
		}
		return r.applySlotLocked(s, s.node.Deliver(r.cfg.ID, msg))
	}
	return wrapSlot(s.n, msg).sendTo(to)
}

// wrapSlot encodes an inner core message for slot n into its SlotMessage
// wire form. The result is never written again, so one broadcast shares it
// between its destinations.
func wrapSlot(n int, msg consensus.Message) *SlotMessage {
	body, _ := consensus.MarshalPooled(msg) // the error is always nil
	return &SlotMessage{Slot: n, InnerKind: msg.Kind(), InnerBody: body}
}

// sendTo addresses the wrapped message to one process.
func (m *SlotMessage) sendTo(to consensus.ProcessID) []outbound {
	return []outbound{{to: to, msg: m}}
}

// decideLocked records a slot decision, applies ready commands, and wakes
// waiters. With durability enabled the decision is journaled, in one record,
// before the command is applied or any waiter can observe the outcome.
func (r *Replica) decideLocked(s *slot, v consensus.Value) {
	if s.decided || !r.persistDecideLocked(s, v) {
		return
	}
	r.learnLocked(s, v)
	// Waiters are detached from the table here but woken by emitLocked /
	// the outbox consumer — after the decision's WAL records are durable,
	// and off the critical section.
	wk := wakeup{v: v, chs: s.waiters}
	s.waiters = nil
	wk.done = r.applyReadyLocked()
	if len(wk.chs) > 0 || len(wk.done) > 0 {
		r.wakes = append(r.wakes, wk)
	}
}

// applyReadyLocked is the one place applied advances slot by slot: it hands
// the machine every decided value at the frontier in slot order, hands the
// callers waiting on those slots their verdict and detaches them (the caller
// queues their wakeup), and retires what no peer needs any more behind it.
func (r *Replica) applyReadyLocked() (done []chan struct{}) {
	for s := r.slots[r.m.applied]; s != nil && s.decided; s = r.slots[r.m.applied] {
		ev := r.m.apply(s.val, r.ls.now())
		if r.ls != nil {
			r.ls.count(ev)
		}
		for _, w := range s.applyWaiters {
			w.applied, w.fenced = true, ev.Fenced
			done = append(done, w.done)
		}
		s.applyWaiters = nil
	}
	r.retireAppliedLocked()
	return done
}

// retireAppliedLocked raises the compaction floor to the lowest applied index
// a peer last gossiped — what the slowest still needs as a log suffix — but
// holds no more than retainSlots slots and retainBytes of values for it: a
// peer that says nothing, or lags further, is served a snapshot. A stale or
// lowered index is safe: it only decides which of the two a request gets.
func (r *Replica) retireAppliedLocked() {
	floor := r.m.applied
	for p, a := range r.cu.peerApplied {
		if consensus.ProcessID(p) != r.cfg.ID && a < floor {
			floor = a
		}
	}
	r.retireBelowLocked(max(floor, r.m.applied-retainSlots))
	for r.retainedBytes > retainBytes && r.compactFloor < r.m.applied {
		r.retireBelowLocked(r.compactFloor + 1)
	}
}

// WaitApplied blocks until the given slot has been applied to the store.
func (r *Replica) WaitApplied(ctx context.Context, slot int) error {
	r.mu.Lock()
	if slot < r.m.applied {
		r.mu.Unlock()
		return nil
	}
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	w := &applyWaiter{done: make(chan struct{})}
	s := r.slotLocked(slot)
	s.applyWaiters = append(s.applyWaiters, w)
	r.mu.Unlock()
	_, err := w.wait(ctx)
	return err
}

// emitLocked hands the current step's deferred I/O — out plus any wakeups
// queued under the lock — to the outbox, tagged with the WAL index that
// must be durable before the entry's messages leave. The step does NOT
// wait for that I/O: the caller returns while the consumer commits, sends,
// and wakes in FIFO order behind it. That pipelining is the point — while
// one fdatasync runs, later steps keep computing and their entries pile up
// behind it, so the next commit covers them all. (An early version parked
// each step on its own entry's completion; it serialized every protocol
// hop behind a full fsync and benchmarked 4× slower than the in-lock
// baseline at 8 clients.)
func (r *Replica) emitLocked(out []outbound) { r.emitDoneLocked(out, nil) }

// emitDoneLocked is emitLocked with a completion hook: done, when non-nil,
// is closed once the step's entry has been processed (outboxEntry.done).
func (r *Replica) emitDoneLocked(out []outbound, done chan struct{}) {
	wakes := r.wakes
	r.wakes = nil
	if len(out) == 0 && len(wakes) == 0 && done == nil {
		return
	}
	var idx uint64
	if r.dur != nil {
		idx = r.dur.critical
		if len(wakes) > 0 {
			// Completing a caller asserts full durability of the step.
			idx = r.dur.buffered
		}
	}
	r.io.enqueue(outboxEntry{r: r, walIdx: idx, msgs: out, wake: wakes, done: done})
}

// SyncIO is a barrier: it blocks until every protocol step emitted before
// the call is fully flushed — WAL records committed, outbound messages
// handed to the transport, waiters woken. The hot path
// pipelines I/O behind Handle/Execute, so a caller that needs "effects
// externally visible now" (tests inspecting a capture transport, orderly
// shutdown sequences) calls SyncIO instead of assuming the triggering call
// implied completion. On a closed replica there is nothing queued and
// SyncIO returns immediately.
func (r *Replica) SyncIO() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	var idx uint64
	if r.dur != nil {
		idx = r.dur.buffered
	}
	done := make(chan struct{})
	r.io.enqueue(outboxEntry{r: r, walIdx: idx, done: done})
	r.mu.Unlock()
	<-done
}

// IOFail poisons the replica after an out-of-lock journal failure (the
// deferred analogue of a persist failure inside the step): a failed commit in
// the I/O scheduler. No-op if the replica is already closed.
func (r *Replica) IOFail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.persistFailLocked(err)
	}
}
