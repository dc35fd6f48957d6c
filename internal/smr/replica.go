package smr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/omega"
	"repro/internal/transport"
	"repro/internal/wal"
)

// ErrClosed is returned by operations on a closed replica.
var ErrClosed = errors.New("smr: replica closed")

// KindSlot is the wire kind of slot-wrapped consensus traffic.
const KindSlot = "smr.slot"

// SlotMessage carries one core-protocol message for one log slot.
type SlotMessage struct {
	Slot      int             `json:"slot"`
	InnerKind string          `json:"innerKind"`
	InnerBody json.RawMessage `json:"innerBody"`
}

// Kind implements consensus.Message.
func (SlotMessage) Kind() string { return KindSlot }

// AppendBody splices the message's JSON body into dst verbatim instead of
// letting encoding/json re-validate and compact the RawMessage — slot wrap
// is the hottest encode in the system (every inter-replica protocol message
// takes it), and implementing consensus.BodyAppender lets codec.Encode
// build the whole frame in one buffer. The field names must stay in
// lockstep with the struct tags: decoding remains reflective.
func (m SlotMessage) AppendBody(dst []byte) []byte {
	dst = append(dst, `{"slot":`...)
	dst = strconv.AppendInt(dst, int64(m.Slot), 10)
	dst = append(dst, `,"innerKind":`...)
	dst = strconv.AppendQuote(dst, m.InnerKind)
	dst = append(dst, `,"innerBody":`...)
	if len(m.InnerBody) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, m.InnerBody...)
	}
	return append(dst, '}')
}

// MarshalJSON keeps plain json.Marshal of a SlotMessage (WAL payloads,
// tests) on the same spliced encoding.
func (m SlotMessage) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, len(`{"slot":,"innerKind":,"innerBody":}`)+20+len(m.InnerKind)+2+len(m.InnerBody))
	return m.AppendBody(b), nil
}

// RegisterMessages registers the smr (and required inner) kinds with codec.
func RegisterMessages(codec *consensus.Codec) {
	codec.MustRegister(KindSlot, func() consensus.Message { return &SlotMessage{} })
	registerCatchupMessages(codec)
	omega.RegisterMessages(codec)
}

// innerCodec decodes slot-wrapped core messages.
func innerCodec() *consensus.Codec {
	c := consensus.NewCodec()
	core.RegisterMessages(c)
	return c
}

// Replica is one member of the replicated state machine. It hosts an Ω
// detector and one object-mode core consensus instance per log slot, and
// applies decided commands to a key-value store in slot order.
type Replica struct {
	cfg   consensus.Config
	tick  time.Duration
	inner *consensus.Codec

	mu       sync.Mutex
	tr       transport.Transport
	det      *omega.Detector
	slots    map[int]*core.Node
	log      map[int]consensus.Value
	applied  int
	store    map[string]string
	waiters  map[int][]chan consensus.Value
	appliedW map[int][]chan struct{}
	gens     map[string]int64
	timers   map[string]*time.Timer
	seq      int64
	closed   bool

	// freeHint is a monotonic lower bound on the smallest undecided slot,
	// advanced by decideLocked so nextFreeSlotLocked does not rescan the
	// decided prefix on every contended submit. propHint is one past the
	// newest slot this replica proposed in: concurrent local Executes must
	// land in distinct slots, or they all race for the same one and the
	// losers pay a conflict round (with I/O off the lock the race window is
	// the whole pipeline, not just the in-lock step, so this is load-bearing
	// for parallel submits).
	freeHint int
	propHint int

	// Out-of-lock I/O (see outbox.go, iosched.go). io is private by default
	// and shared across groups under the sharded runtime (ShareIO). wakes
	// accumulates the wakeups of the current locked step; emitLocked drains
	// it into the outbox.
	io       *IOScheduler
	ioShared bool
	wakes    []wakeup

	// Anti-entropy state: the largest applied index any peer announced,
	// and the compaction floor below which slot instances and log entries
	// have been discarded (stragglers there are served snapshots).
	maxSeenApplied int
	compactFloor   int

	// batch, when non-nil, groups Submit traffic into OpBatch commands.
	batch *batcher

	// faultStale deliberately serves overwritten values from faultPrev —
	// the chaos harness's "teeth" fault (see FaultInjectStaleReads).
	faultStale bool
	faultPrev  map[string]string

	// dur, when non-nil, journals slot state to a WAL and checkpoints the
	// applied store into snapshots (see durability.go).
	dur *durable

	// ls, when non-nil, tracks the replicated leader lease (EnableLeases,
	// see lease.go); rgate coalesces concurrent linearizable reads behind
	// shared no-op rounds regardless of leases (see readbarrier.go).
	ls    *leaseState
	rgate readGate
}

// NewReplica builds a replica. Call BindTransport, then Start. Flexible
// quorum sizes (cfg.FastSize/cfg.RecoverySize, see internal/quorum.NewFlex)
// are validated here and honored by every slot's core node.
func NewReplica(cfg consensus.Config, tick time.Duration) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("smr: %w", err)
	}
	return &Replica{
		cfg:      cfg,
		tick:     tick,
		inner:    innerCodec(),
		det:      omega.New(cfg, 0),
		slots:    make(map[int]*core.Node),
		log:      make(map[int]consensus.Value),
		store:    make(map[string]string),
		waiters:  make(map[int][]chan consensus.Value),
		appliedW: make(map[int][]chan struct{}),
		gens:     make(map[string]int64),
		timers:   make(map[string]*time.Timer),
		io:       newIOScheduler(),
	}, nil
}

// ShareIO attaches the replica to a shared I/O scheduler (NewSharedIO):
// its WAL commits, sends, and wakeups interleave with every other replica
// on the same scheduler, and fsyncs coalesce across all of them — the
// sharded runtime's single group-commit stream. The scheduler's owner must
// Close it after the replicas; the replicas themselves only flush through
// it. Call before EnableDurability/Start, and only with a durability setup
// whose Journal targets the same underlying WAL as every other sharer.
func (r *Replica) ShareIO(s *IOScheduler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.io = s
	r.ioShared = true
}

// currentTransport reads the bound transport under the lock (the outbox
// consumer reloads it per entry owner so Kill's detach is respected).
func (r *Replica) currentTransport() transport.Transport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tr
}

// journal returns the durability journal, nil without durability.
func (r *Replica) journal() Journal {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dur == nil {
		return nil
	}
	return r.dur.wal
}

// ID returns this replica's process id.
func (r *Replica) ID() consensus.ProcessID { return r.cfg.ID }

// OmegaLeader returns the Ω failure detector's current leader estimate —
// the replica most likely to complete fast-path proposals, which the
// session protocol hands to clients as a proposer-locality hint (the OHAI
// line, see docs/SESSIONS.md).
func (r *Replica) OmegaLeader() consensus.ProcessID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.det.Leader()
}

// BindTransport installs the transport (which should deliver to Handle).
func (r *Replica) BindTransport(tr transport.Transport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr = tr
}

// Start boots the Ω detector and the status gossip. Slots start lazily on
// first touch.
func (r *Replica) Start() {
	r.mu.Lock()
	r.emitLocked(r.applyDetectorLocked(r.det.Start()))
	r.scheduleStatusLocked()
	if r.ls != nil && r.ls.opts.AutoGrant {
		r.scheduleLeaseLocked()
	}
	r.mu.Unlock()
}

// statusPeriod is the applied-index gossip period, in protocol ticks.
func (r *Replica) statusPeriod() time.Duration {
	return time.Duration(5*r.cfg.Delta) * r.tick
}

// scheduleStatusLocked (re)arms the periodic status broadcast.
func (r *Replica) scheduleStatusLocked() {
	const key = "smr/status"
	r.gens[key]++
	gen := r.gens[key]
	if t, ok := r.timers[key]; ok {
		t.Stop()
	}
	r.timers[key] = time.AfterFunc(r.statusPeriod(), func() {
		r.mu.Lock()
		if r.closed || r.gens[key] != gen {
			r.mu.Unlock()
			return
		}
		var out []outbound
		for i := 0; i < r.cfg.N; i++ {
			if p := consensus.ProcessID(i); p != r.cfg.ID {
				out = append(out, outbound{to: p, msg: &Status{Applied: r.applied}})
			}
		}
		r.scheduleStatusLocked()
		// Through the outbox: the advertised applied index must not get
		// ahead of the journal on disk.
		r.emitLocked(out)
		r.mu.Unlock()
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
			// slot's instance is gone, but our snapshot covers it.
			out = r.catchupReplyLocked(from)
			break
		}
		if m.Slot > r.maxSeenApplied {
			r.maxSeenApplied = m.Slot
		}
		if v, decided := r.log[m.Slot]; decided {
			if _, live := r.slots[m.Slot]; !live {
				// Decided slot whose instance is gone (recovered from the
				// journal): answer with the decision rather than spinning
				// up a fresh — amnesiac — instance.
				out = r.slotDecideReplyLocked(m.Slot, from, v)
				break
			}
		}
		inner, err := r.inner.DecodeBody(m.InnerKind, m.InnerBody)
		if err == nil {
			node := r.slotLocked(m.Slot)
			out = r.applySlotLocked(m.Slot, node, node.Deliver(from, inner))
			if !r.persistSlotLocked(m.Slot) {
				out = nil
			}
		}
	case *Status:
		if m.Applied > r.maxSeenApplied {
			r.maxSeenApplied = m.Applied
		}
		if m.Applied > r.applied {
			out = []outbound{{to: from, msg: &CatchupRequest{From: r.applied}}}
		}
	case *CatchupRequest:
		if r.applied > m.From {
			out = r.catchupReplyLocked(from)
		}
	case *CatchupReply:
		if r.ls != nil && m.LeaseHolder != nil {
			// The snapshot jump skips the individual grant applies, so
			// the sender exports its lease view as (holder, remaining):
			// durations survive the clock-origin change, and importing at
			// any later instant only shortens the true residual window.
			r.ls.tab.Import(*m.LeaseHolder, m.LeaseRemain, r.ls.now())
		}
		out = r.installSnapshotLocked(m.Applied, m.Store, m.Decided)
	default:
		out = r.applyDetectorLocked(r.det.Deliver(from, msg))
	}
	r.emitLocked(out)
	r.mu.Unlock()
}

// catchupReplyLocked builds a snapshot reply for a lagging peer: the
// applied store plus decided values for still-open slots, so a peer that
// missed decide traffic (drops, restarts) learns them without re-running
// those slots.
func (r *Replica) catchupReplyLocked(to consensus.ProcessID) []outbound {
	store := make(map[string]string, len(r.store))
	for k, v := range r.store {
		store[k] = v
	}
	var decided map[int]consensus.Value
	for slot, v := range r.log {
		if slot >= r.applied {
			if decided == nil {
				decided = make(map[int]consensus.Value)
			}
			decided[slot] = v
		}
	}
	reply := &CatchupReply{Applied: r.applied, Store: store, Decided: decided}
	if r.ls != nil {
		if h, remain := r.ls.tab.Export(r.ls.now()); h >= 0 && remain > 0 {
			reply.LeaseHolder = &h
			reply.LeaseRemain = remain
		}
	}
	return []outbound{{to: to, msg: reply}}
}

// installSnapshotLocked adopts a peer's snapshot if it is ahead of us:
// the store replaces ours, slots below the snapshot's applied index are
// discarded, and their waiters are told to retry. Decided values for
// still-open slots are then adopted as ordinary decisions.
func (r *Replica) installSnapshotLocked(applied int, store map[string]string, decided map[int]consensus.Value) []outbound {
	if applied > r.applied {
		r.store = make(map[string]string, len(store))
		for k, v := range store {
			r.store[k] = v
		}
		r.applied = applied
		if applied > r.maxSeenApplied {
			r.maxSeenApplied = applied
		}
		// Discard superseded slot instances and their timers.
		for slot := range r.slots {
			if slot < applied {
				r.dropSlotLocked(slot)
			}
		}
		for slot := range r.log {
			if slot < applied {
				delete(r.log, slot)
			}
		}
		// Waiters on superseded slots cannot learn their slot's value from
		// us anymore; ⊥ tells Execute to retry in a fresh slot. Queued as a
		// wakeup so the notification happens off the critical section.
		wk := wakeup{v: consensus.None}
		for slot, chs := range r.waiters {
			if slot < applied {
				wk.chs = append(wk.chs, chs...)
				delete(r.waiters, slot)
			}
		}
		for slot, chs := range r.appliedW {
			if slot < applied {
				wk.done = append(wk.done, chs...)
				delete(r.appliedW, slot)
			}
		}
		if len(wk.chs) > 0 || len(wk.done) > 0 {
			r.wakes = append(r.wakes, wk)
		}
		// The store jump has no WAL records backing it; checkpoint so a
		// crash right after catchup does not roll the replica back.
		r.writeSnapshotLocked()
	}
	var out []outbound
	for _, slot := range sortedSlots(decided) {
		if slot < r.applied {
			continue
		}
		if _, dup := r.log[slot]; dup {
			continue
		}
		out = append(out, r.decideLocked(slot, decided[slot])...)
	}
	return out
}

// dropSlotLocked removes a slot instance and cancels its timer.
func (r *Replica) dropSlotLocked(slot int) {
	delete(r.slots, slot)
	key := timerKey(slot, core.TimerNewBallot)
	r.gens[key]++
	if t, ok := r.timers[key]; ok {
		t.Stop()
		delete(r.timers, key)
	}
}

// Submit replicates cmd and returns once it is decided and applied at this
// replica, or when ctx is done (the command may still commit afterwards).
// With EnableAdaptiveBatching, Submits arriving while another is in
// consensus are grouped into one instance.
func (r *Replica) Submit(ctx context.Context, cmd Command) error {
	r.mu.Lock()
	if cmd.ID == "" {
		r.seq++
		cmd.ID = fmt.Sprintf("%s-%d", r.cfg.ID, r.seq)
	}
	b := r.batch
	r.mu.Unlock()
	if b != nil && cmd.Op != OpBatch {
		return b.executeBatched(ctx, cmd)
	}
	slot, err := r.Execute(ctx, cmd)
	if err != nil {
		return err
	}
	if err := r.WaitApplied(ctx, slot); err != nil {
		return err
	}
	if r.takeFenced(slot) {
		// Decided and applied — but a lease grant in an earlier slot beat
		// it there, so the holder may have served reads that miss it. The
		// ack is downgraded to ambiguous (see ErrLeaseFenced).
		return ErrLeaseFenced
	}
	return nil
}

// Execute proposes cmd and blocks until a slot decides it, returning the
// slot index. It retries in subsequent slots when a competing command wins.
func (r *Replica) Execute(ctx context.Context, cmd Command) (int, error) {
	if cmd.ID == "" {
		r.mu.Lock()
		r.seq++
		cmd.ID = fmt.Sprintf("%s-%d", r.cfg.ID, r.seq)
		r.mu.Unlock()
	}
	want, err := cmd.Encode()
	if err != nil {
		return 0, err
	}
	slot := -1
	for {
		var (
			ch  chan consensus.Value
			out []outbound
		)
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return 0, ErrClosed
		}
		if cmd.Op != OpLeaseGrant {
			// Pre-propose lease gate (definite refusal with holder hint);
			// re-checked per retry — a grant can apply between rounds.
			if err := r.leaseRefuseLocked(); err != nil {
				r.mu.Unlock()
				return 0, err
			}
		}
		slot = r.nextFreeSlotLocked(slot)
		if v, decided := r.log[slot]; decided {
			r.mu.Unlock()
			if v == want {
				return slot, nil
			}
			continue
		}
		node := r.slotLocked(slot)
		if slot >= r.propHint {
			r.propHint = slot + 1
		}
		out = r.applySlotLocked(slot, node, node.Propose(want))
		if !r.persistSlotLocked(slot) {
			r.mu.Unlock()
			return 0, ErrClosed
		}
		ch = make(chan consensus.Value, 1)
		r.waiters[slot] = append(r.waiters[slot], ch)
		r.emitLocked(out)
		r.mu.Unlock()

		select {
		case v := <-ch:
			if v == want {
				return slot, nil
			}
			// A competing command won this slot; try the next.
		case <-ctx.Done():
			return 0, fmt.Errorf("smr execute: %w", ctx.Err())
		}
	}
}

// nextFreeSlotLocked returns the smallest slot after prev this replica has
// neither seen decided nor already proposed in. freeHint bounds the scan
// from below: decideLocked keeps it past the decided prefix, so the loop is
// O(1) amortized instead of rescanning from prev on every contended submit.
// propHint keeps concurrent local proposals out of each other's slots.
func (r *Replica) nextFreeSlotLocked(prev int) int {
	s := prev + 1
	if s < r.applied {
		s = r.applied
	}
	if s < r.freeHint {
		s = r.freeHint
	}
	if s < r.propHint {
		s = r.propHint
	}
	for {
		if _, decided := r.log[s]; !decided {
			return s
		}
		s++
	}
}

// TransportStats reports the bound transport's counters (false when no
// transport is bound). Surfaced by the server's STATS command and the
// periodic stats line in cmd/kv.
func (r *Replica) TransportStats() (transport.Stats, bool) {
	r.mu.Lock()
	tr := r.tr
	r.mu.Unlock()
	if tr == nil {
		return transport.Stats{}, false
	}
	return tr.Stats(), true
}

// Get reads a key from the local (applied) store state.
func (r *Replica) Get(key string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.getLocked(key)
}

// getLocked is Get under the lock, shared with LeaseRead so the lease
// validity check and the store read are one atomic step (and lease reads
// honor the chaos harness's stale-read fault injection).
func (r *Replica) getLocked(key string) (string, bool) {
	if r.faultStale {
		if v, ok := r.faultPrev[key]; ok {
			return v, true
		}
	}
	v, ok := r.store[key]
	return v, ok
}

// Applied returns the number of log slots applied to the store.
func (r *Replica) Applied() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// LogValue returns the decided value of a slot, if any (compacted slots
// report false).
func (r *Replica) LogValue(slot int) (consensus.Value, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.log[slot]
	return v, ok
}

// Compact discards slot instances and log entries below applied−retain and
// raises the compaction floor: stragglers below it are served snapshots
// instead of per-slot messages. Returns the new floor.
func (r *Replica) Compact(retain int) int {
	if retain < 0 {
		retain = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	floor := r.applied - retain
	if floor <= r.compactFloor {
		return r.compactFloor
	}
	r.compactFloor = floor
	for slot := range r.slots {
		if slot < floor {
			r.dropSlotLocked(slot)
		}
	}
	for slot := range r.log {
		if slot < floor {
			delete(r.log, slot)
		}
	}
	return floor
}

// CompactFloor returns the current compaction floor.
func (r *Replica) CompactFloor() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.compactFloor
}

// SnapshotJSON exports the replica's applied state (for external backup).
func (r *Replica) SnapshotJSON() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	decided := make(map[int]consensus.Value)
	for slot, v := range r.log {
		if slot >= r.applied {
			decided[slot] = v
		}
	}
	return encodeSnapshot(r.applied, r.store, decided)
}

// InstallSnapshotJSON installs a previously exported state if it is ahead
// of the replica's own.
func (r *Replica) InstallSnapshotJSON(data []byte) error {
	applied, store, decided, err := decodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("smr install snapshot: %w", err)
	}
	r.mu.Lock()
	r.emitLocked(r.installSnapshotLocked(applied, store, decided))
	r.mu.Unlock()
	return nil
}

// Close stops timers, drains the outbox, and closes the WAL and transport.
// Channels still registered in the waiter maps are closed here; channels a
// queued wakeup owns were removed from the maps at queue time and are fired
// by the consumer — never both, so no channel is closed twice.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	for _, t := range r.timers {
		t.Stop()
	}
	for _, chs := range r.waiters {
		for _, ch := range chs {
			close(ch)
		}
	}
	r.waiters = make(map[int][]chan consensus.Value)
	for _, chs := range r.appliedW {
		for _, ch := range chs {
			close(ch)
		}
	}
	r.appliedW = make(map[int][]chan struct{})
	tr := r.tr
	b := r.batch
	d := r.dur
	r.mu.Unlock()
	if b != nil {
		b.close()
	}
	// Drain the outbox before touching the WAL or transport: queued entries
	// still commit and send through them. A shared scheduler stays up for
	// the other replicas on it — a barrier flushes everything this replica
	// queued (FIFO: everything ahead of it included) without stopping it.
	if r.ioShared {
		r.io.barrier()
	} else {
		r.io.Close()
	}
	var firstErr error
	if d != nil && d.ownsWAL {
		// Close syncs: a graceful shutdown leaves no torn tail to recover.
		// A shared journal is the runtime's to close, once, after every
		// group.
		if err := d.wal.Close(); err != nil {
			firstErr = err
		}
	}
	if tr != nil {
		if err := tr.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// slotLocked returns (starting if needed) the consensus instance for slot.
func (r *Replica) slotLocked(slot int) *core.Node {
	if node, ok := r.slots[slot]; ok {
		return node
	}
	node := core.NewUnchecked(r.cfg, core.ModeObject, core.DefaultOptions(), r.det)
	r.slots[slot] = node
	// Start the instance: its effects (the new-ballot timer) are applied
	// immediately; any sends it might produce are flushed by the caller.
	r.applyTimersOnlyLocked(slot, node, node.Start())
	r.noteSlotCreatedLocked(slot, node)
	return node
}

// outbound is a deferred transport send.
type outbound struct {
	to  consensus.ProcessID
	msg consensus.Message
}

// applySlotLocked interprets a slot instance's effects.
func (r *Replica) applySlotLocked(slot int, node *core.Node, effects []consensus.Effect) []outbound {
	var out []outbound
	for _, eff := range effects {
		switch eff := eff.(type) {
		case consensus.Send:
			out = append(out, r.slotSendLocked(slot, node, eff.To, eff.Msg)...)
		case consensus.Broadcast:
			for i := 0; i < r.cfg.N; i++ {
				to := consensus.ProcessID(i)
				if to == r.cfg.ID && !eff.Self {
					continue
				}
				out = append(out, r.slotSendLocked(slot, node, to, eff.Msg)...)
			}
		case consensus.StartTimer:
			r.startSlotTimerLocked(slot, node, eff)
		case consensus.StopTimer:
			r.gens[timerKey(slot, eff.Timer)]++
		case consensus.Decide:
			out = append(out, r.decideLocked(slot, eff.Value)...)
		}
	}
	return out
}

// applyTimersOnlyLocked applies Start effects (timers only; Start sends
// nothing in the core protocol).
func (r *Replica) applyTimersOnlyLocked(slot int, node *core.Node, effects []consensus.Effect) {
	for _, eff := range effects {
		if st, ok := eff.(consensus.StartTimer); ok {
			r.startSlotTimerLocked(slot, node, st)
		}
	}
}

// slotSendLocked wraps and routes one slot message; self-addressed messages
// are delivered inline.
func (r *Replica) slotSendLocked(slot int, node *core.Node, to consensus.ProcessID, msg consensus.Message) []outbound {
	if to == r.cfg.ID {
		return r.applySlotLocked(slot, node, node.Deliver(r.cfg.ID, msg))
	}
	wrapped, ok := r.wrapSlotMsgLocked(slot, msg)
	if !ok {
		return nil
	}
	return []outbound{{to: to, msg: wrapped}}
}

// wrapSlotMsgLocked encodes an inner core message into its SlotMessage
// wire form: one marshal of the inner body, no envelope round trip.
func (r *Replica) wrapSlotMsgLocked(slot int, msg consensus.Message) (*SlotMessage, bool) {
	body, err := consensus.MarshalPooled(msg)
	if err != nil {
		return nil, false
	}
	return &SlotMessage{Slot: slot, InnerKind: msg.Kind(), InnerBody: body}, true
}

// slotDecideReplyLocked answers traffic for a decided slot whose instance
// is gone (journal recovery) with the decision itself.
func (r *Replica) slotDecideReplyLocked(slot int, to consensus.ProcessID, v consensus.Value) []outbound {
	wrapped, ok := r.wrapSlotMsgLocked(slot, &core.DecideMsg{Value: v})
	if !ok {
		return nil
	}
	return []outbound{{to: to, msg: wrapped}}
}

// decideLocked records a slot decision, applies ready commands, and wakes
// waiters. With durability enabled, the decision (and the deciding
// instance's final state) is journaled before the command is applied or
// any waiter can observe the outcome.
func (r *Replica) decideLocked(slot int, v consensus.Value) []outbound {
	if _, dup := r.log[slot]; dup {
		return nil
	}
	if !r.persistDecideLocked(slot, v) || !r.persistSlotLocked(slot) {
		return nil
	}
	r.log[slot] = v
	if slot == r.freeHint {
		for {
			r.freeHint++
			if _, decided := r.log[r.freeHint]; !decided {
				break
			}
		}
	}
	before := r.applied
	for {
		next, ok := r.log[r.applied]
		if !ok {
			break
		}
		r.applyCommandLocked(next)
		r.applied++
	}
	// Waiters are detached from the maps here but woken by emitLocked /
	// the outbox consumer — after the decision's WAL records are durable,
	// and off the critical section.
	wk := wakeup{v: v, chs: r.waiters[slot]}
	delete(r.waiters, slot)
	for s, chs := range r.appliedW {
		if s < r.applied {
			wk.done = append(wk.done, chs...)
			delete(r.appliedW, s)
		}
	}
	// A bare no-op that releases no WaitApplied waiter completes only read
	// barriers: any write acknowledgement travels through done channels, so
	// this condition is what keeps the relaxed (critical-only) durability
	// watermark strictly off the write path.
	wk.readOnly = isNoopValue(v.Data) && len(wk.done) == 0
	if len(wk.chs) > 0 || len(wk.done) > 0 {
		r.wakes = append(r.wakes, wk)
	}
	r.maybeSnapshotLocked(r.applied - before)
	return nil
}

// WaitApplied blocks until the given slot has been applied to the store.
func (r *Replica) WaitApplied(ctx context.Context, slot int) error {
	r.mu.Lock()
	if slot < r.applied {
		r.mu.Unlock()
		return nil
	}
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	ch := make(chan struct{})
	r.appliedW[slot] = append(r.appliedW[slot], ch)
	r.mu.Unlock()
	select {
	case <-ch:
		// The channel also closes when the replica shuts down or fails
		// before the slot applies; re-check rather than report success.
		r.mu.Lock()
		applied := slot < r.applied
		r.mu.Unlock()
		if !applied {
			return ErrClosed
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("smr wait applied: %w", ctx.Err())
	}
}

// applyCommandLocked applies one decided command to the store.
func (r *Replica) applyCommandLocked(v consensus.Value) {
	cmd, err := DecodeCommand(v)
	if err != nil {
		if r.ls != nil {
			// Unparseable commands still revoke conservatively: an
			// unknown proposer must not leave a lease looking live.
			r.applyLeaseLocked(Command{}, -1)
		}
		return // unparseable command: treated as a no-op
	}
	if r.ls != nil {
		r.applyLeaseLocked(cmd, proposerOf(cmd.ID))
	}
	r.applyDecodedLocked(cmd)
}

func (r *Replica) applyDecodedLocked(cmd Command) {
	switch cmd.Op {
	case OpPut:
		if r.faultStale {
			if old, ok := r.store[cmd.Key]; ok && old != cmd.Val {
				r.faultPrev[cmd.Key] = old
			}
		}
		r.store[cmd.Key] = cmd.Val
	case OpDelete:
		delete(r.store, cmd.Key)
	case OpBatch:
		for _, sub := range cmd.Subs {
			r.applyDecodedLocked(sub)
		}
	}
}

// applyDetectorLocked interprets the Ω detector's effects.
func (r *Replica) applyDetectorLocked(effects []consensus.Effect) []outbound {
	var out []outbound
	for _, eff := range effects {
		switch eff := eff.(type) {
		case consensus.Send:
			if eff.To != r.cfg.ID {
				out = append(out, outbound{to: eff.To, msg: eff.Msg})
			}
		case consensus.Broadcast:
			for i := 0; i < r.cfg.N; i++ {
				to := consensus.ProcessID(i)
				if to == r.cfg.ID {
					continue
				}
				out = append(out, outbound{to: to, msg: eff.Msg})
			}
		case consensus.StartTimer:
			r.startDetectorTimerLocked(eff)
		}
	}
	return out
}

func timerKey(slot int, t consensus.TimerID) string {
	return fmt.Sprintf("s%d/%s", slot, t)
}

func (r *Replica) startSlotTimerLocked(slot int, node *core.Node, eff consensus.StartTimer) {
	key := timerKey(slot, eff.Timer)
	r.gens[key]++
	gen := r.gens[key]
	if t, ok := r.timers[key]; ok {
		t.Stop()
	}
	r.timers[key] = time.AfterFunc(time.Duration(eff.After)*r.tick, func() {
		r.mu.Lock()
		if r.closed || r.gens[key] != gen {
			r.mu.Unlock()
			return
		}
		out := r.applySlotLocked(slot, node, node.Tick(eff.Timer))
		if !r.persistSlotLocked(slot) {
			out = nil
		}
		r.emitLocked(out)
		r.mu.Unlock()
	})
}

func (r *Replica) startDetectorTimerLocked(eff consensus.StartTimer) {
	key := "omega/" + string(eff.Timer)
	r.gens[key]++
	gen := r.gens[key]
	if t, ok := r.timers[key]; ok {
		t.Stop()
	}
	r.timers[key] = time.AfterFunc(time.Duration(eff.After)*r.tick, func() {
		r.mu.Lock()
		if r.closed || r.gens[key] != gen {
			r.mu.Unlock()
			return
		}
		r.emitLocked(r.applyDetectorLocked(r.det.Tick(eff.Timer)))
		r.mu.Unlock()
	})
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
func (r *Replica) emitLocked(out []outbound) {
	wakes := r.wakes
	r.wakes = nil
	if len(out) == 0 && len(wakes) == 0 {
		return
	}
	var idx uint64
	if r.dur != nil && r.dur.policy == wal.SyncAlways {
		idx = r.dur.critical
		for _, w := range wakes {
			if !w.readOnly {
				// Completing a client call asserts full durability of the
				// step; only pure read-barrier wakeups may skip it.
				idx = r.dur.buffered
				break
			}
		}
	}
	r.io.enqueue(outboxEntry{r: r, walIdx: idx, msgs: out, wake: wakes})
}

// SyncIO is a barrier: it blocks until every protocol step emitted before
// the call is fully flushed — WAL records committed (under fsync-always),
// outbound messages handed to the transport, waiters woken. The hot path
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
	if r.dur != nil && r.dur.policy == wal.SyncAlways {
		idx = r.dur.buffered
	}
	done := make(chan struct{})
	r.io.enqueue(outboxEntry{r: r, walIdx: idx, done: done})
	r.mu.Unlock()
	<-done
}

// ioFail poisons the replica after an out-of-lock I/O failure (the deferred
// analogue of a persist failure inside the step) and releases every waiter
// still registered. No-op if the replica is already closed.
func (r *Replica) ioFail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if r.dur != nil {
		r.persistFailLocked(err)
	} else {
		r.closed = true
	}
}
