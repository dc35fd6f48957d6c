// Package smr builds state-machine replication on top of the paper's
// consensus protocol: an unbounded log of consensus instances (one per
// slot), each running the object-mode protocol of internal/core, plus a
// replicated key-value store applied from the log. This is the practical
// setting the paper's introduction appeals to: a client submits its command
// to one replica — the proxy — and the proxy answers as soon as it decides,
// which is why the proxy's two-step latency is what matters (and why the
// paper relaxes Lamport's definition the way it does). What the log decides
// is internal/smr/slotlog's; a Replica carries its effects out.
package smr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/deadline"
	"repro/internal/lease"
	"repro/internal/quorum"
	"repro/internal/smr/slotlog"
	"repro/internal/transport"
)

// The log's messages and commands, under the names the module knows.
type (
	Command        = slotlog.Command
	Op             = slotlog.Op
	SlotMessage    = slotlog.SlotMessage
	CatchupRequest = slotlog.CatchupRequest
	CatchupReply   = slotlog.CatchupReply
	LeaseStats     = slotlog.LeaseStats
)

const (
	KindSlot     = slotlog.KindSlot
	OpPut        = slotlog.OpPut
	OpDelete     = slotlog.OpDelete
	OpNoop       = slotlog.OpNoop
	OpBatch      = slotlog.OpBatch
	OpLeaseGrant = slotlog.OpLeaseGrant
)

// DecodeCommand unpacks a consensus value produced by Command.Encode.
func DecodeCommand(v consensus.Value) (Command, error) { return slotlog.DecodeCommand(v) }

// ErrClosed is returned by operations on a closed replica.
var ErrClosed = errors.New("smr: replica closed")

// RegisterMessages registers the smr (and required inner) kinds with codec.
func RegisterMessages(codec *consensus.Codec) {
	codec.MustRegister(KindSlot, func() consensus.Message { return &SlotMessage{} })
	codec.MustRegister(slotlog.KindCatchupRequest, func() consensus.Message { return &CatchupRequest{} })
	codec.MustRegister(slotlog.KindCatchupReply, func() consensus.Message { return &CatchupReply{} })
}

// Replica is one process's member of one consensus group of the replicated
// state machine. Its log (slotlog.Log) decides; the replica carries that out
// (carryOutLocked). It is never a process by itself: shard.Runtime builds one
// per group and owns what a process has one of — the WAL, the I/O scheduler
// io that is the group's only handle on it, the transport tr is the group's
// view of, Ω and the applied-index gossip. tr and io are fixed at
// construction.
//
// mu guards the log, the timer and the riders (what ends each caller's
// wait, by token), and is held for in-memory work only: journal appends are
// buffered, and the outbox consumer commits them. batch groups Submit traffic
// into OpBatch commands, under its own mutex, under which nothing takes mu.
// dur, when non-nil, journals (durability.go); leases, when non-nil, is the
// lease configuration (lease.go). clock is the one clock every input reads,
// leaders the Ω a fire reads; timer, armed at Start, runs fire at wake, the
// log's earliest deadline.
type Replica struct {
	mu      sync.Mutex
	log     *slotlog.Log
	tr      transport.Transport
	io      *IOScheduler
	batch   *batcher
	dur     *durable
	leases  *lease.Config
	clock   func() time.Duration
	leaders LeaderView
	timer   *deadline.Timer
	wake    int64
	riders  map[int64]func(slotlog.Verdict)
}

// LeaderView is the process's Ω as a group reads it: the estimate, and
// whether it has held still long enough for the auto-grant to volunteer.
// Reads only, safe from any goroutine; shard.Runtime feeds it.
type LeaderView interface {
	consensus.LeaderOracle
	LeaderStable(minPeriods int64) bool
}

// ReplicaOptions is what a replica may be built with beyond its group's
// configuration: each part is on when non-nil.
type ReplicaOptions struct {
	// Leases enables replicated leader leases (see LeaseOptions).
	Leases *LeaseOptions
	// Durability journals the replica, snapshots included, to a WAL and
	// recovers it from there (see DurabilityOptions).
	Durability *DurabilityOptions
}

// NewReplica builds one consensus group's replica on io, leaders and tr —
// the scheduler, the Ω and the group's send view that its host
// (shard.Runtime) owns: io and leaders are shared by every group of the
// process, tr tags the group on the process's one transport. The replica
// uses all three and closes none. A durable replica journals through io, so
// io must have been built on a log. Call Start next. A configuration below
// the paper's bound for a consensus object (Theorem 6: quorum.Check) is
// refused with quorum.ErrInfeasible; flexible quorum sizes
// (cfg.FastSize/cfg.RecoverySize) are checked against theirs.
// tick is the length of one protocol tick, in which slot timers count; it
// must be positive. The replica's clock (LeaseOptions.Now, if set) starts
// here. A refused construction leaves nothing running.
func NewReplica(cfg consensus.Config, tick time.Duration, io *IOScheduler, leaders LeaderView, tr transport.Transport, opts ReplicaOptions) (*Replica, RecoveryInfo, error) {
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
	start := time.Now()
	r := &Replica{
		tr:      tr,
		io:      io,
		clock:   func() time.Duration { return time.Since(start) },
		leaders: leaders,
		riders:  make(map[int64]func(slotlog.Verdict)),
	}
	if lo := opts.Leases; lo != nil {
		var err error
		if r.leases, err = leaseConfig(*lo, cfg.ID); err != nil {
			return nil, RecoveryInfo{}, err
		}
		if lo.Now != nil {
			r.clock = lo.Now
		}
	}
	autoGrant := opts.Leases != nil && opts.Leases.AutoGrant
	r.batch = &batcher{replica: r, maxSize: maxChunk, poke: make(chan struct{}, 1)}
	log := func(snapEvery int) *slotlog.Log { return slotlog.New(cfg, tick, r.leases, autoGrant, snapEvery) }
	if opts.Durability == nil {
		r.log = log(0)
		return r, RecoveryInfo{}, nil
	}
	info, err := r.recoverFrom(log, *opts.Durability)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	return r, info, nil
}

// Start arms the timer for the log's earliest deadline: each expiry feeds
// the log a Fire (fire) until the replica halts. Slots start on first touch.
func (r *Replica) Start() {
	r.mu.Lock()
	wake := r.wake
	r.wake, r.timer = 0, deadline.AfterFunc(time.Hour, r.fire)
	r.timer.Stop()
	r.alarmLocked(wake)
	r.mu.Unlock()
}

// fire is the timer's callback. The timer is spent, so the next deadline the
// log reports arms it again. A fire that a later step overtook is one the log
// ignores, and one that lands after Close steps a halted log, which does
// nothing.
func (r *Replica) fire() {
	r.mu.Lock()
	r.wake = 0
	r.stepLocked(slotlog.Input{Kind: slotlog.Fire, Leader: r.leaders.Leader(), Stable: r.leaders.LeaderStable(2)}, nil, nil)
	r.mu.Unlock()
}

// now reads the replica's clock, in nanoseconds since its construction.
func (r *Replica) now() int64 { return r.clock().Nanoseconds() }

// Handle is the transport handler.
func (r *Replica) Handle(from consensus.ProcessID, msg consensus.Message) {
	r.mu.Lock()
	r.stepLocked(slotlog.Input{Kind: slotlog.Deliver, From: from, Msg: msg}, nil, nil)
	r.mu.Unlock()
}

// NoteApplied is the host's applied-index gossip reaching this group: peer
// from has applied that many of the group's slots (see slotlog's Gossip).
func (r *Replica) NoteApplied(from consensus.ProcessID, applied int) {
	r.mu.Lock()
	r.stepLocked(slotlog.Input{Kind: slotlog.Gossip, From: from, Applied: applied}, nil, nil)
	r.mu.Unlock()
}

// stepLocked feeds the log one input at the clock's reading and carries
// out its effects; rider, when non-nil, ends the wait the input registers
// (whose token it returns), done runs once the step's outbox entry is through.
// A wait the step ends as it begins, journaling nothing — a refusal, a wait
// on a slot already applied — waits for no I/O: its verdict is returned with
// now set, and neither rider nor done is kept.
func (r *Replica) stepLocked(in slotlog.Input, rider func(slotlog.Verdict), done func()) (tok int64, v slotlog.Verdict, now bool) {
	in.Now = r.now()
	eff := r.log.Step(in)
	if vs := eff.Verdicts; rider != nil && len(eff.Records) == 0 && len(vs) == 1 && vs[0].Token == eff.Token {
		v, now = vs[0], true
		eff.Verdicts, rider, done = nil, nil, nil
	}
	if rider != nil {
		r.riders[eff.Token] = rider
	}
	r.carryOutLocked(eff, done)
	return eff.Token, v, now
}

// carryOutLocked carries out one step's effects in their order (Effects),
// queuing the sends and verdicts as one outbox entry tagged with the WAL
// index they wait for. The step does not wait for that I/O: while one
// fdatasync runs, later steps' entries pile up behind it and share the next.
// A journaled snapshot rides the entry, for the consumer to truncate behind.
// A journal failure poisons the replica: no step may become externally
// visible without its WAL record, so the only safe continuation is none —
// the step sends nothing, and its callers are closed.
func (r *Replica) carryOutLocked(eff slotlog.Effects, done func()) {
	cut, ok := r.journalLocked(eff.Records)
	if !ok {
		r.haltLocked()
		eff.Sends, eff.Wake = nil, 0
		for i := range eff.Verdicts {
			eff.Verdicts[i].Outcome = slotlog.Closed
		}
	}
	r.alarmLocked(eff.Wake)
	var wake []delivery
	for _, v := range eff.Verdicts {
		if fn := r.riders[v.Token]; fn != nil {
			delete(r.riders, v.Token)
			wake = append(wake, delivery{fn: fn, v: v})
		}
	}
	if len(eff.Sends) == 0 && len(wake) == 0 && done == nil && cut.to == 0 {
		return
	}
	var idx uint64
	if r.dur != nil {
		if idx = r.dur.critical; len(wake) > 0 {
			idx = r.dur.buffered
		}
	}
	r.io.enqueue(outboxEntry{r: r, walIdx: idx, cut: cut, msgs: eff.Sends, wake: wake, done: done})
}

// alarmLocked sets the timer for the log's earliest deadline, at (0: none),
// when it moved; before Start it only notes it.
func (r *Replica) alarmLocked(at int64) {
	if at == r.wake {
		return
	}
	switch r.wake = at; {
	case r.timer == nil:
	case at == 0:
		r.timer.Stop()
	default:
		r.timer.Reset(time.Duration(at - r.now()))
	}
}

// haltLocked makes the replica refuse work from here on: the log closes every
// caller still waiting, through the outbox like any verdict, and holds no
// deadline, so the timer stops.
func (r *Replica) haltLocked() {
	r.carryOutLocked(r.log.Step(slotlog.Input{Kind: slotlog.Halt}), nil)
}

// Submit replicates cmd and returns once it is decided and applied at this
// replica, or when ctx is done (the command may still commit afterwards).
// Submits arriving together share one instance (see batcher).
func (r *Replica) Submit(ctx context.Context, cmd Command) error {
	return r.batch.executeBatched(ctx, cmd)
}

// propose hands cmds to the log as one proposal; it waits for none of its
// I/O, so a caller that proposes again at once (the batcher's flusher) takes
// slots in call order. A halted replica, and the lease gate, refuse it with
// an error, and then rider and done are never called.
func (r *Replica) propose(cmds []Command, rider func(slotlog.Verdict), done func()) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log.Halted() {
		return ErrClosed
	}
	if _, v, now := r.stepLocked(slotlog.Input{Kind: slotlog.Propose, Cmds: cmds}, rider, done); now {
		return verdictErr(v)
	}
	return nil
}

// errInvalid ends a proposal holding a command with an op of no byte.
var errInvalid = errors.New("smr: a command with an unknown op")

// verdictErr is what a verdict means to a caller of Submit.
func verdictErr(v slotlog.Verdict) error {
	switch v.Outcome {
	case slotlog.Fenced:
		return ErrLeaseFenced
	case slotlog.Closed:
		return ErrClosed
	case slotlog.Refused:
		return &LeaseHeldError{Holder: v.Holder}
	case slotlog.Invalid:
		return errInvalid
	}
	return nil
}

// Execute proposes cmd by itself, past the batcher, and blocks until a slot
// decides and applies it, returning the slot index; it is proposed again
// while competing commands win, until ctx is done.
func (r *Replica) Execute(ctx context.Context, cmd Command) (int, error) {
	r.mu.Lock()
	if r.log.Halted() {
		r.mu.Unlock()
		return 0, ErrClosed
	}
	v, err := r.awaitLocked(ctx, slotlog.Input{Kind: slotlog.Propose, Cmds: []Command{cmd}})
	if err != nil {
		return 0, fmt.Errorf("smr execute: %w", err)
	}
	if err := verdictErr(v); err != nil && !errors.Is(err, ErrLeaseFenced) {
		return 0, err
	}
	return v.Slot, nil
}

// WaitApplied blocks until the given slot has been applied to the store.
func (r *Replica) WaitApplied(ctx context.Context, slot int) error {
	r.mu.Lock()
	if r.log.Halted() {
		r.mu.Unlock()
		return ErrClosed
	}
	v, err := r.awaitLocked(ctx, slotlog.Input{Kind: slotlog.Wait, Slot: slot})
	if err != nil {
		return fmt.Errorf("smr wait applied: %w", err)
	}
	if v.Outcome == slotlog.Closed {
		return ErrClosed
	}
	return nil
}

// awaitLocked feeds the log in, which registers a caller, unlocks, and waits
// for the caller's verdict — or for ctx, and then the caller is cancelled.
func (r *Replica) awaitLocked(ctx context.Context, in slotlog.Input) (slotlog.Verdict, error) {
	ch := make(chan slotlog.Verdict, 1)
	tok, v, now := r.stepLocked(in, func(v slotlog.Verdict) { ch <- v }, nil)
	r.mu.Unlock()
	if now {
		return v, nil
	}
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		r.mu.Lock()
		delete(r.riders, tok)
		r.stepLocked(slotlog.Input{Kind: slotlog.Cancel, Token: tok}, nil, nil)
		r.mu.Unlock()
		return slotlog.Verdict{}, ctx.Err()
	}
}

// Applied returns the number of log slots applied to the store.
func (r *Replica) Applied() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Applied()
}

// LogValue returns the decided value of a slot, if any (retired slots
// report false).
func (r *Replica) LogValue(slot int) (consensus.Value, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Value(slot)
}

// Close halts the replica, which stops its timer, and drains its queued
// I/O: when it returns, every entry this replica emitted has been committed,
// handed to its view and woken, and every outstanding call has failed. The
// WAL, the scheduler and the transport stay open — they belong to the host,
// which also decides whether the queued entries still reach the wire
// (shard.Runtime.Close and Kill). It also works on a poisoned or closed
// replica.
func (r *Replica) Close() {
	r.mu.Lock()
	r.haltLocked()
	r.mu.Unlock()

	r.batch.close()
	// FIFO: everything this replica queued is ahead of the barrier.
	r.io.barrier()
}

// SyncIO is a barrier: it blocks until every protocol step emitted before
// the call is fully flushed — WAL records committed, messages handed to the
// transport, waiters woken — for a caller that needs effects externally
// visible now (tests, orderly shutdowns). On a closed replica it returns at
// once.
func (r *Replica) SyncIO() {
	r.mu.Lock()
	if r.log.Halted() {
		r.mu.Unlock()
		return
	}
	var idx uint64
	if r.dur != nil {
		idx = r.dur.buffered
	}
	done := make(chan struct{})
	r.io.enqueue(outboxEntry{r: r, walIdx: idx, done: func() { close(done) }})
	r.mu.Unlock()
	<-done
}

// IOFail poisons the replica after a failed commit in the I/O scheduler.
func (r *Replica) IOFail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.haltLocked()
}

// FaultInjectStaleReads breaks the read path on purpose: Get then returns an
// overwritten key's previous value, which the chaos suite's teeth test must
// see its checker reject. Never enable outside tests.
func (r *Replica) FaultInjectStaleReads() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log.InjectStaleReads()
}
