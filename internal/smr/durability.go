package smr

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/smr/slotlog"
	"repro/internal/storage"
)

// The durability layer turns the replica from the paper's crash-stop model
// into crash-recovery: every per-slot durable fact (current ballot, last
// vote, decided value) is journaled to a WAL before any message or client
// acknowledgement that depends on it leaves the process, and the applied
// store state is checkpointed into atomic snapshots so the WAL can be
// truncated. On restart the replica replays snapshot + WAL tail and
// resumes with its promises intact — the property the paper's recovery
// rule (set R, Lemmas 3 and 7) assumes of a recovering acceptor.

// DurabilityOptions configures a replica's journal and snapshots
// (ReplicaOptions.Durability). The journal is the log the replica's
// IOScheduler was built on, which the scheduler's owner opened and alone
// syncs, aborts and closes.
type DurabilityOptions struct {
	// Dir is the group's data directory: snapshots live in Dir/snap.
	Dir string
	// Group tags every record this replica appends to the journal and
	// filters replay: records carrying another group's id are skipped. It
	// names one of the scheduler's groups, whose truncation floor it sets.
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

// durable is the replica's journal and snapshot state (guarded by
// Replica.mu): the group its records carry and the newest snapshot's index.
// buffered is the WAL index of the last record appended; critical is the
// newest one that guards safety (slotlog.Record's Critical). Outbox entries
// that only carry messages wait for critical; entries that complete callers
// wait for buffered — an acknowledgement promises everything the step
// journaled is durable.
type durable struct {
	group              int
	snapDir            string
	buffered, critical uint64
	snapIndex          int
}

// A WAL record is the log's (slotlog.Record) with the group that wrote it,
// as groups interleave records in one shared WAL and recovery demuxes on it.
// Critical is not journaled.

// walHeaderLen is the fixed part of a record payload: the format-version
// byte, the kind, the group (u32) and the slot (u64), big-endian. Fixed so
// that replay tells whose record it is, and for which slot, from the header.
const walHeaderLen = 1 + 1 + 4 + 8

// appendWalEntry appends e's record payload: the header, then the state or
// the value in its binary form.
func appendWalEntry(dst []byte, e slotlog.Record) []byte {
	dst = append(dst, consensus.FormatVersion, e.Kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(e.G))
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.Slot))
	if e.Kind == slotlog.RecState {
		return core.AppendState(dst, e.State)
	}
	return consensus.AppendValue(dst, e.Val)
}

// decodeWalEntry reads a record payload. mine is false, and the body left
// undecoded, for another group's record or a slot below minSlot.
func decodeWalEntry(payload []byte, group, minSlot int) (e slotlog.Record, mine bool, err error) {
	if _, err := consensus.NewVersionedDecoder(payload, "smr durability: wal record"); err != nil {
		return slotlog.Record{}, false, err
	}
	if len(payload) < walHeaderLen {
		return slotlog.Record{}, false, fmt.Errorf("smr durability: wal record header: %w", consensus.ErrTruncated)
	}
	e.Kind = payload[1]
	e.G = int(binary.BigEndian.Uint32(payload[2:]))
	e.Slot = int(binary.BigEndian.Uint64(payload[6:]))
	if e.G != group || e.Slot < minSlot {
		return e, false, nil
	}
	d := consensus.NewDecoder(payload[walHeaderLen:])
	switch e.Kind {
	case slotlog.RecState:
		e.State = core.DecodeState(&d)
	case slotlog.RecDecide:
		e.Val = d.Value()
	default:
		d.Fail(consensus.ErrNotCanonical)
	}
	if err := d.Finish(); err != nil {
		return slotlog.Record{}, false, fmt.Errorf("smr durability: wal record decode: %w", err)
	}
	return e, true, nil
}

// appendSnapshot appends s's blob, which is handed to internal/storage (replay
// resumes at WalNext, and everything before it may be truncated): the
// format-version byte, the scalars, the open slots in ascending order, then
// the cut, a CatchupReply body, as the rest.
func appendSnapshot(dst []byte, s *slotlog.Snapshot) []byte {
	dst = append(dst, consensus.FormatVersion)
	dst = consensus.AppendVarint(dst, int64(s.CompactFloor))
	dst = consensus.AppendVarint(dst, s.Seq)
	dst = consensus.AppendUvarint(dst, s.WalNext)
	dst = consensus.AppendUvarint(dst, uint64(len(s.Slots)))
	open := make([]int, 0, len(s.Slots))
	for n := range s.Slots {
		open = append(open, n)
	}
	sort.Ints(open)
	for _, n := range open {
		dst = core.AppendState(consensus.AppendVarint(dst, int64(n)), s.Slots[n])
	}
	return s.Cut.AppendBody(dst)
}

// decodeSnapshot reads what appendSnapshot wrote.
func decodeSnapshot(blob []byte) (*slotlog.Snapshot, error) {
	d, err := consensus.NewVersionedDecoder(blob, "smr durability: snapshot")
	if err != nil {
		return nil, err
	}
	s := &slotlog.Snapshot{CompactFloor: int(d.Varint()), Seq: d.Varint(), WalNext: d.Uvarint()}
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

// recoverFrom, NewReplica's last step, builds the replica's log from the
// snapshots under opts.Dir and the group's records in the scheduler's log.
func (r *Replica) recoverFrom(cfg consensus.Config, opts DurabilityOptions) (RecoveryInfo, error) {
	if opts.Dir == "" {
		return RecoveryInfo{}, fmt.Errorf("smr durability: empty dir")
	}
	if opts.Group < 0 || opts.Group >= len(r.io.floors) {
		return RecoveryInfo{}, fmt.Errorf("smr durability: group %d on a scheduler of %d groups", opts.Group, len(r.io.floors))
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	snapDir := filepath.Join(opts.Dir, "snap")
	snapIdx, blob, haveSnap, err := storage.Load(snapDir)
	if err != nil {
		return RecoveryInfo{}, fmt.Errorf("smr durability: %w", err)
	}
	snap := &slotlog.Snapshot{}
	if haveSnap {
		if snap, err = decodeSnapshot(blob); err != nil {
			return RecoveryInfo{}, err
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.dur = &durable{group: opts.Group, snapDir: snapDir, snapIndex: int(snapIdx)}
	r.log = slotlog.New(cfg, r.ls.table(), max(opts.SnapshotEvery, 0))
	if haveSnap {
		r.stepLocked(slotlog.Input{Kind: slotlog.Restore, Snap: snap}, nil, nil)
	}
	rinfo, err := r.io.log.Replay(snap.WalNext, func(_ uint64, payload []byte) error {
		// Not mine: another group's record in the shared WAL, or a slot the
		// snapshot supersedes.
		rec, mine, err := decodeWalEntry(payload, opts.Group, snap.Cut.Applied)
		if err == nil && mine {
			r.stepLocked(slotlog.Input{Kind: slotlog.Recover, Record: rec}, nil, nil)
		}
		return err
	})
	if err != nil {
		return RecoveryInfo{}, err
	}
	eff := r.log.Step(slotlog.Input{Kind: slotlog.Open, Now: r.ls.now()})
	if eff.Err != nil {
		return RecoveryInfo{}, eff.Err
	}
	r.carryOutLocked(eff, nil)
	li := r.log.Info()
	return RecoveryInfo{
		Recovered: haveSnap || rinfo.Records > 0, SnapshotApplied: snap.Cut.Applied,
		WalRecords: rinfo.Records, TornTail: rinfo.TornTail,
		Applied: li.Applied, OpenSlots: li.OpenSlots,
	}, nil
}

// journalLocked appends a step's records to the scheduler's log, if the
// replica is durable, buffered for the outbox consumer to commit; false means
// an append failed.
func (r *Replica) journalLocked(recs []slotlog.Record) bool {
	if r.dur == nil {
		return true
	}
	for _, rec := range recs {
		bp := consensus.Scratch()
		rec.G = r.dur.group
		payload := appendWalEntry(*bp, rec)
		idx, err := r.io.log.AppendBuffered(payload) // copies the payload into its frame
		consensus.Release(bp, payload)
		if err != nil {
			return false
		}
		r.dur.buffered = idx
		if rec.Critical {
			r.dur.critical = idx
		}
	}
	return true
}

// saveLocked saves a snapshot and truncates the WAL behind it, as far as the
// process's other groups allow.
func (r *Replica) saveLocked(snap *slotlog.Snapshot) bool {
	if snap == nil || r.dur == nil {
		return true
	}
	snap.WalNext = r.io.log.NextIndex()
	blob := appendSnapshot(nil, snap)
	// The WAL must be on disk before the snapshot that references WalNext:
	// a cold path, so the in-lock fsync is tolerable.
	//lint:allow iolock snapshot cut must be atomic with the state it captures
	if err := r.io.log.Sync(); err != nil {
		return false
	}
	if err := storage.Save(r.dur.snapDir, uint64(snap.Cut.Applied), blob); err != nil {
		return false
	}
	r.dur.snapIndex = snap.Cut.Applied
	_, err := r.io.truncateBefore(r.dur.group, snap.WalNext)
	return err == nil
}

// ReplicaInfo is one group's operational summary (shard.Info renders the
// INFO line from it): the log's, whether the group journals (its host reports
// the log itself), its newest snapshot's index, and its lease counters.
type ReplicaInfo struct {
	slotlog.Info
	Durable       bool        `json:"durable"`
	SnapshotIndex int         `json:"snapshotIndex,omitempty"`
	Lease         *LeaseStats `json:"lease,omitempty"`
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
	info := ReplicaInfo{Info: r.log.Info(), Lease: lst}
	if r.dur != nil {
		info.Durable = true
		info.SnapshotIndex = r.dur.snapIndex
	}
	return info
}
