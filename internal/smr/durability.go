package smr

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The durability layer turns the replica from the paper's crash-stop model
// into crash-recovery: every per-slot durable fact (current ballot, last
// vote, decided value) is journaled to a WAL before any message or client
// acknowledgement that depends on it leaves the process, and the applied
// store state is checkpointed into atomic snapshots so the WAL can be
// truncated. On restart the replica replays snapshot + WAL tail and
// resumes with its promises intact — the property the paper's recovery
// rule (set R, Lemmas 3 and 7) assumes of a recovering acceptor.

// Journal is the append-log surface the durability layer writes through:
// the sharded runtime (internal/shard) passes per-group views of its one
// process-wide WAL, so N groups share a single on-disk log; *wal.WAL
// satisfies it too. Appends are buffered: the process's IOScheduler, built
// on the same log, commits them. There is no Close: whoever opened the log
// syncs, aborts and closes it.
type Journal interface {
	AppendBuffered(payload []byte) (uint64, error)
	Sync() error
	NextIndex() uint64
	TruncateBefore(index uint64) (int, error)
	Replay(from uint64, fn func(index uint64, payload []byte) error) (wal.ReplayInfo, error)
}

// DurabilityOptions configures a replica's journal and snapshots
// (ReplicaOptions.Durability).
type DurabilityOptions struct {
	// Dir is the group's data directory: snapshots live in Dir/snap.
	Dir string
	// Journal is the log the group journals to, opened and owned by the
	// caller: Close leaves it open (the owner syncs and closes it once,
	// after every group) and Kill does not abort it (the owner aborts
	// before killing the groups, see shard.Runtime.Kill). It must be the
	// log the replica's IOScheduler was built on, or a view of it.
	Journal Journal
	// Group tags every record this replica appends to the journal and
	// filters replay: records carrying another group's id are skipped.
	Group int
	// SnapshotEvery is how many applied commands elapse between automatic
	// snapshots (default 64; <0 disables automatic snapshots).
	SnapshotEvery int
}

const defaultSnapshotEvery = 64

// RecoveryInfo reports what NewReplica recovered (zero without durability).
type RecoveryInfo struct {
	Recovered       bool // any prior on-disk state was found
	SnapshotApplied int  // applied index of the snapshot used (0 if none)
	WalRecords      int  // WAL records replayed on top of the snapshot
	TornTail        bool // replay stopped at a torn record (what opening the log truncated, its owner knows)
	Applied         int  // applied index after recovery
	OpenSlots       int  // live slot instances restored
}

// durable is the replica's persistence state (guarded by Replica.mu).
type durable struct {
	wal       Journal
	group     int // id tagged into records / matched on replay
	snapDir   string
	snapEvery int
	// buffered is the WAL index of the last record appended; critical is the
	// newest one that guards safety: every state record, and a decision the
	// instance's journaled state does not already imply (persistDecideLocked).
	// Outbox entries that only carry messages wait for critical; entries that
	// complete client calls (wakes) wait for buffered — an acknowledgement
	// promises everything the step journaled is durable.
	buffered uint64
	critical uint64
	// sinceSnap counts commands applied since the last snapshot.
	sinceSnap int
	snapIndex int // applied index of the newest snapshot
	err       error
}

// WAL record kinds.
const (
	walKindState  byte = 's' // per-slot durable core state
	walKindDecide byte = 'd' // a decision learned for a slot
)

// walEntry is one WAL record. G is the consensus group that wrote it: groups
// interleave records in one shared WAL and recovery demuxes on it. State is
// the body of a walKindState record, Val of a walKindDecide one.
type walEntry struct {
	Kind  byte
	G     int
	Slot  int
	State core.State
	Val   consensus.Value
}

// walHeaderLen is the fixed part of a record payload: the format-version
// byte, the kind, the group (u32) and the slot (u64), big-endian. Fixed so
// that replay tells whose record it is, and for which slot, from the header.
const walHeaderLen = 1 + 1 + 4 + 8

// appendWalEntry appends e's record payload: the header, then the state or
// the value in its binary form.
func appendWalEntry(dst []byte, e walEntry) []byte {
	dst = append(dst, consensus.FormatVersion, e.Kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(e.G))
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.Slot))
	if e.Kind == walKindState {
		return core.AppendState(dst, e.State)
	}
	return consensus.AppendValue(dst, e.Val)
}

// decodeWalEntry reads a record payload. mine is false, and the body left
// undecoded, for another group's record or a slot below minSlot.
func decodeWalEntry(payload []byte, group, minSlot int) (e walEntry, mine bool, err error) {
	if _, err := consensus.NewVersionedDecoder(payload, "smr durability: wal record"); err != nil {
		return walEntry{}, false, err
	}
	if len(payload) < walHeaderLen {
		return walEntry{}, false, fmt.Errorf("smr durability: wal record header: %w", consensus.ErrTruncated)
	}
	e.Kind = payload[1]
	e.G = int(binary.BigEndian.Uint32(payload[2:]))
	e.Slot = int(binary.BigEndian.Uint64(payload[6:]))
	if e.G != group || e.Slot < minSlot {
		return e, false, nil
	}
	d := consensus.NewDecoder(payload[walHeaderLen:])
	switch e.Kind {
	case walKindState:
		e.State = core.DecodeState(&d)
	case walKindDecide:
		e.Val = d.Value()
	default:
		d.Fail(consensus.ErrNotCanonical)
	}
	if err := d.Finish(); err != nil {
		return walEntry{}, false, fmt.Errorf("smr durability: wal record decode: %w", err)
	}
	return e, true, nil
}

// durableSnapshot is the blob handed to internal/storage: the cut a lagging
// peer would be sent (the applied store, the decided tail, the lease view —
// see kvMachine.cut) plus what only this replica's restart needs. WalNext is
// the WAL index the snapshot is consistent up to: replay resumes there and
// everything before it may be truncated. Slots are the open instances.
//
// The lease view is (holder, residual guard ns) — a duration, so recovery (at
// any later real time) imports a window no shorter than the true one. Own
// serving rights are never exported to the snapshot's own replica: Import
// drops self-grants, so a crash-restart always forgets its lease.
type durableSnapshot struct {
	Cut          CatchupReply
	CompactFloor int
	Seq          int64
	WalNext      uint64
	Slots        map[int]core.State
}

// appendSnapshot appends s's blob: the format-version byte, the scalars, the
// open slots in ascending order, then the cut, a CatchupReply body, as the rest.
func appendSnapshot(dst []byte, s *durableSnapshot) []byte {
	dst = append(dst, consensus.FormatVersion)
	dst = consensus.AppendVarint(dst, int64(s.CompactFloor))
	dst = consensus.AppendVarint(dst, s.Seq)
	dst = consensus.AppendUvarint(dst, s.WalNext)
	dst = consensus.AppendUvarint(dst, uint64(len(s.Slots)))
	for _, n := range sortedSlots(s.Slots) {
		dst = core.AppendState(consensus.AppendVarint(dst, int64(n)), s.Slots[n])
	}
	return s.Cut.AppendBody(dst)
}

// decodeSnapshot reads what appendSnapshot wrote.
func decodeSnapshot(blob []byte) (*durableSnapshot, error) {
	d, err := consensus.NewVersionedDecoder(blob, "smr durability: snapshot")
	if err != nil {
		return nil, err
	}
	s := &durableSnapshot{CompactFloor: int(d.Varint()), Seq: d.Varint(), WalNext: d.Uvarint()}
	// An open slot is at least its number and a nine-byte state.
	if open := d.Count(10); open > 0 {
		s.Slots = make(map[int]core.State, open)
		for i, prev := 0, 0; i < open; i++ {
			n := int(d.Varint())
			if i > 0 && n <= prev {
				d.Fail(consensus.ErrNotCanonical)
			}
			s.Slots[n], prev = core.DecodeState(&d), n
		}
	}
	rest := d.Rest()
	if err = d.Finish(); err == nil {
		err = s.Cut.DecodeBody(rest)
	}
	if err == nil && s.Cut.Store == nil {
		err = consensus.ErrNotCanonical // a log suffix is not a cut
	}
	if err != nil {
		return nil, fmt.Errorf("smr durability: snapshot decode: %w", err)
	}
	return s, nil
}

// recoverFrom, NewReplica's last step, recovers the replica from the
// snapshots under opts.Dir and the records of opts.Journal, which it journals
// to from then on. A state it cannot restore refuses the replica before any
// restored slot's timer is armed.
func (r *Replica) recoverFrom(opts DurabilityOptions) (RecoveryInfo, error) {
	if opts.Dir == "" {
		return RecoveryInfo{}, fmt.Errorf("smr durability: empty dir")
	}
	if opts.Journal == nil {
		return RecoveryInfo{}, fmt.Errorf("smr durability: no journal")
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	snapDir := filepath.Join(opts.Dir, "snap")
	snapIdx, blob, haveSnap, err := storage.Load(snapDir)
	if err != nil {
		return RecoveryInfo{}, fmt.Errorf("smr durability: %w", err)
	}
	snap := &durableSnapshot{}
	if haveSnap {
		if snap, err = decodeSnapshot(blob); err != nil {
			return RecoveryInfo{}, err
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.dur = &durable{
		wal:       opts.Journal,
		group:     opts.Group,
		snapDir:   snapDir,
		snapEvery: opts.SnapshotEvery,
		snapIndex: int(snapIdx),
	}

	info := RecoveryInfo{SnapshotApplied: snap.Cut.Applied}

	// 1. Snapshot state first: the machine's cut, the compaction floor, and
	// the command sequence as of the snapshot.
	if haveSnap {
		r.m.install(r.ls.now(), &snap.Cut)
		r.compactFloor = max(r.compactFloor, snap.CompactFloor)
		r.seq = max(r.seq, snap.Seq)
		for n, v := range snap.Cut.Decided {
			if n >= r.m.applied {
				r.learnLocked(r.slotLocked(n), v)
			}
		}
	}

	// 2. WAL tail on top: collect the last journaled state per slot and any
	// decisions, ignoring records for slots the snapshot already covers. A
	// command this replica proposed after the snapshot is in one of them, as a
	// decision or as a state's proposal: the sequence moves past its ID, so
	// no command of a previous life shares an ID with a new one.
	states := make(map[int]core.State)
	for slot, st := range snap.Slots {
		if slot >= snap.Cut.Applied {
			states[slot] = st
		}
	}
	rinfo, err := opts.Journal.Replay(snap.WalNext, func(_ uint64, payload []byte) error {
		// Not mine: another group's record in the shared WAL, or a slot the
		// snapshot supersedes.
		e, mine, err := decodeWalEntry(payload, opts.Group, snap.Cut.Applied)
		if err != nil || !mine {
			return err
		}
		switch e.Kind {
		case walKindState:
			states[e.Slot] = e.State
			r.passOwnIDsLocked(e.State.InitialVal)
		case walKindDecide:
			r.learnLocked(r.slotLocked(e.Slot), e.Val)
			r.passOwnIDsLocked(e.Val)
		}
		return nil
	})
	if err != nil {
		return RecoveryInfo{}, err
	}
	info.Recovered = haveSnap || rinfo.Records > 0
	info.WalRecords, info.TornTail = rinfo.Records, rinfo.TornTail

	// 3. Re-apply decided commands in slot order.
	r.applyReadyLocked()

	// 4. A restarted replica must never re-enter a slot below its applied
	// index with a fresh (amnesiac) instance: retire them all, so stragglers
	// there are served snapshots instead.
	r.retireBelowLocked(r.m.applied)

	// 5. Rebuild live instances for undecided slots, promises intact. A decided
	// slot stays a value: its last state record predates the decision. Every
	// state is restored before any instance starts — starting arms the slot's
	// timer — so a refused one leaves no timer behind.
	var open []*slot
	for n, st := range states {
		if n < r.m.applied || r.decidedLocked(n) {
			continue
		}
		s := r.slotLocked(n)
		s.node = core.NewUnchecked(r.cfg, core.ModeObject, core.DefaultOptions(), r.leaders)
		if err := s.node.Restore(st); err != nil {
			return RecoveryInfo{}, fmt.Errorf("smr durability: slot %d: %w", n, err)
		}
		s.persisted = st
		open = append(open, s)
	}
	for _, s := range open {
		r.applySlotLocked(s, s.node.Start())
	}
	info.OpenSlots, info.Applied = len(open), r.m.applied
	return info, nil
}

// passOwnIDsLocked raises seq to the newest of this replica's command IDs in
// v ("p0-17", "p0-batch-18"; a batch's riders included). A value that is no
// command, or none of ours, changes nothing.
func (r *Replica) passOwnIDsLocked(v consensus.Value) {
	cmd, _ := DecodeCommand(v) // Command{} if v is none: no ID
	for _, c := range append([]Command{cmd}, cmd.Subs...) {
		if proposerOf(c.ID) == int(r.cfg.ID) {
			seq, _ := strconv.ParseInt(c.ID[strings.LastIndexByte(c.ID, '-')+1:], 10, 64)
			r.seq = max(r.seq, seq)
		}
	}
}

// persistFailLocked poisons the replica after a journaling failure: no
// state transition may become externally visible without its WAL record,
// so the only safe continuation is none. The replica refuses work and
// releases its waiters (haltLocked); Close or Kill still drains it.
func (r *Replica) persistFailLocked(err error) {
	if r.dur != nil && r.dur.err == nil {
		r.dur.err = err
	}
	r.haltLocked()
}

// appendEntryLocked journals one WAL entry, if there is a journal; false
// means the replica is poisoned. The append is buffered — the outbox consumer
// commits it before any dependent message or wakeup escapes; critical marks records whose loss could break safety (see durable).
func (r *Replica) appendEntryLocked(e walEntry, critical bool) bool {
	if r.dur == nil {
		return true
	}
	if r.dur.err != nil {
		return false
	}
	e.G = r.dur.group
	bp := consensus.Scratch()
	payload := appendWalEntry(*bp, e)
	idx, err := r.dur.wal.AppendBuffered(payload) // copies the payload into its frame
	consensus.Release(bp, payload)
	if err != nil {
		r.persistFailLocked(err)
		return false
	}
	r.dur.buffered = idx
	if critical {
		r.dur.critical = idx
	}
	return true
}

// persistSlotLocked journals slot's durable state if it changed since the
// last journaled state. Call after applying a slot's effects and before
// any of them escape (flush or waiter wake-up). Returns false (and poisons
// the replica) on failure.
func (r *Replica) persistSlotLocked(s *slot) bool {
	if s.node == nil {
		return true
	}
	st := s.node.Snapshot()
	// Always sync-critical: a proposal, promise or vote of a live instance
	// must hit disk before any peer sees a message built on it.
	if st != s.persisted && !r.appendEntryLocked(walEntry{Kind: walKindState, Slot: s.n, State: st}, true) {
		return false
	}
	s.persisted = st
	return true
}

// persistDecideLocked journals s's decision, in one record, before it is
// applied or any waiter observes it. The record is sync-critical when the
// deciding step moved the instance's state in a field other than Decided: at
// a ballot-0 proposer Val does, and a proposer that forgot its own fast
// decision would answer a 1A as undecided, which the recovery rule reads as
// "never decided" (R-exclusion). An acceptor adopting a Decide for its vote,
// and a slow-ballot leader, move nothing else: any later ballot re-decides
// their value from the durable votes.
func (r *Replica) persistDecideLocked(s *slot, v consensus.Value) bool {
	critical := false
	if s.node != nil {
		st := s.node.Snapshot()
		st.Decided = s.persisted.Decided
		critical = st != s.persisted
	}
	return r.appendEntryLocked(walEntry{Kind: walKindDecide, Slot: s.n, Val: v}, critical)
}

// maybeSnapshotLocked checkpoints the applied state every snapEvery applied
// commands and truncates the WAL behind the checkpoint.
func (r *Replica) maybeSnapshotLocked(appliedNow int) {
	if r.dur == nil || r.dur.err != nil || r.dur.snapEvery < 0 {
		return
	}
	r.dur.sinceSnap += appliedNow
	if r.dur.sinceSnap < r.dur.snapEvery {
		return
	}
	r.writeSnapshotLocked()
}

// writeSnapshotLocked saves a durable snapshot of the applied state and
// truncates obsolete WAL segments. Failures poison the replica.
func (r *Replica) writeSnapshotLocked() {
	if r.dur == nil || r.dur.err != nil {
		return
	}
	snap := durableSnapshot{
		Cut:          *r.cutLocked(0)[0],
		CompactFloor: r.compactFloor,
		Seq:          r.seq,
		WalNext:      r.dur.wal.NextIndex(),
	}
	for n, s := range r.slots {
		if s.node != nil && n >= r.m.applied {
			if snap.Slots == nil {
				snap.Slots = make(map[int]core.State)
			}
			snap.Slots[n] = s.node.Snapshot()
		}
	}
	blob := appendSnapshot(nil, &snap)
	// The WAL must be on disk before the snapshot that references WalNext.
	// Cold path (runs every snapEvery applied commands), so the in-lock
	// fsync is tolerable; the hot path never comes through here.
	//lint:allow iolock snapshot cut must be atomic with the state it captures
	if err := r.dur.wal.Sync(); err != nil {
		r.persistFailLocked(err)
		return
	}
	if err := storage.Save(r.dur.snapDir, uint64(r.m.applied), blob); err != nil {
		r.persistFailLocked(err)
		return
	}
	r.dur.snapIndex = r.m.applied
	r.dur.sinceSnap = 0
	if _, err := r.dur.wal.TruncateBefore(snap.WalNext); err != nil {
		r.persistFailLocked(err)
	}
}

// ReplicaInfo is one group's operational summary (shard.Info renders the
// INFO line from it).
type ReplicaInfo struct {
	Applied      int `json:"applied"`
	OpenSlots    int `json:"openSlots"`
	CompactFloor int `json:"compactFloor"`
	// Retained counts the decided slot records held for lagging peers and
	// RetainedBytes the values in them; Catchup, the state transfer so far.
	Retained      int          `json:"retained"`
	RetainedBytes int          `json:"retainedBytes"`
	Catchup       CatchupStats `json:"catchup"`
	// Durable says the group journals; the log itself is the process's, and
	// its host reports it once (shard.Info.Wal). SnapshotIndex is the
	// applied index of this group's newest snapshot.
	Durable       bool `json:"durable"`
	SnapshotIndex int  `json:"snapshotIndex,omitempty"`
	// Lease is present when the replica was built with leases (see LeaseStats).
	Lease *LeaseStats `json:"lease,omitempty"`
}

// Info reports the replica's applied index, open slots, and durability
// state.
func (r *Replica) Info() ReplicaInfo {
	var lst *LeaseStats
	if st := r.LeaseStats(); st.Enabled {
		lst = &st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	info := ReplicaInfo{
		Applied:       r.m.applied,
		CompactFloor:  r.compactFloor,
		RetainedBytes: r.retainedBytes,
		Catchup:       r.cu.stats,
		Lease:         lst,
	}
	for n, s := range r.slots {
		if s.decided {
			info.Retained++
		} else if s.node != nil && n >= r.m.applied {
			info.OpenSlots++
		}
	}
	if r.dur != nil {
		info.Durable = true
		info.SnapshotIndex = r.dur.snapIndex
	}
	return info
}

// sortedSlots returns m's keys ascending (catchup installs decisions in
// slot order so the apply loop advances deterministically).
func sortedSlots[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
