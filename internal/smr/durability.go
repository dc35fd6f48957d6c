package smr

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/smr/slotlog"
)

// The durability layer turns the replica from the paper's crash-stop model
// into crash-recovery: every per-slot durable fact (current ballot, last
// vote, decided value) is journaled to a WAL before any message or client
// acknowledgement that depends on it leaves the process, and the applied
// store state is checkpointed into it as snapshot records, so it can be
// truncated. A restart replays the newest whole snapshot and the records after
// it, promises intact — what the paper's recovery rule (set R, Lemmas 3 and 7)
// assumes of a recovering acceptor.

// DurabilityOptions configures a replica's journal and snapshots
// (ReplicaOptions.Durability). The journal is the log the replica's
// IOScheduler was built on, which the scheduler's owner opened and alone
// syncs, aborts and closes; the replica's snapshots are records in it.
type DurabilityOptions struct {
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
	WalRecords      int  // WAL records replayed, the snapshot's among them
	TornTail        bool // replay stopped at a torn record (what opening the log truncated, its owner knows)
	Applied         int  // applied index after recovery
	OpenSlots       int  // live slot instances restored
}

// durable is the replica's journal state (guarded by Replica.mu): the group
// its records carry. buffered is the WAL index of the last record appended;
// critical is the newest one that guards safety (slotlog.Record's Critical).
// Outbox entries that only carry messages wait for critical; entries that
// complete callers wait for buffered — an acknowledgement promises everything
// the step journaled is durable.
type durable struct {
	group              int
	buffered, critical uint64
}

// A WAL record is the log's (slotlog.Record) with the group that wrote it,
// as groups interleave records in one shared WAL and recovery demuxes on it.
// Critical is not journaled.

// walHeaderLen is the fixed part of a record payload: the format-version
// byte, the kind, the group (u32) and the slot (u64), big-endian. Fixed so
// that replay tells whose record it is, and for which slot, from the header.
const walHeaderLen = 1 + 1 + 4 + 8

// appendWalEntry appends e's record payload: the header, then the state, the
// value or the snapshot part in its binary form.
func appendWalEntry(dst []byte, e slotlog.Record) []byte {
	dst = append(dst, consensus.FormatVersion, e.Kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(e.G))
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.Slot))
	switch e.Kind {
	case slotlog.RecState:
		return core.AppendState(dst, e.State)
	case slotlog.RecSnap:
		return appendSnapshot(dst, e.Snap)
	}
	return consensus.AppendValue(dst, e.Val)
}

// decodeWalEntry reads a record payload. mine is false, and the body left
// undecoded, for another group's record.
func decodeWalEntry(payload []byte, group int) (e slotlog.Record, mine bool, err error) {
	if _, err := consensus.NewVersionedDecoder(payload, "smr durability: wal record"); err != nil {
		return slotlog.Record{}, false, err
	}
	if len(payload) < walHeaderLen {
		return slotlog.Record{}, false, fmt.Errorf("smr durability: wal record header: %w", consensus.ErrTruncated)
	}
	e.Kind = payload[1]
	e.G = int(binary.BigEndian.Uint32(payload[2:]))
	e.Slot = int(binary.BigEndian.Uint64(payload[6:]))
	if e.G != group {
		return e, false, nil
	}
	d := consensus.NewDecoder(payload[walHeaderLen:])
	switch e.Kind {
	case slotlog.RecState:
		e.State = core.DecodeState(&d)
	case slotlog.RecDecide:
		e.Val = d.Value()
	case slotlog.RecSnap:
		e.Snap, err = decodeSnapshot(d.Rest())
		return e, err == nil, err
	default:
		d.Fail(consensus.ErrNotCanonical)
	}
	if err := d.Finish(); err != nil {
		return slotlog.Record{}, false, fmt.Errorf("smr durability: wal record decode: %w", err)
	}
	return e, true, nil
}

// appendSnapshot appends the blob of s, one part of a snapshot, which is a
// snapshot record's body: the format-version byte, the sequence, the open
// slots in ascending order, then the cut's part, a CatchupReply body, as the
// rest.
func appendSnapshot(dst []byte, s *slotlog.Snapshot) []byte {
	dst = append(dst, consensus.FormatVersion)
	dst = consensus.AppendVarint(dst, s.Seq)
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
	s := &slotlog.Snapshot{Seq: d.Varint()}
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

// recoverFrom, NewReplica's last step, builds the replica's log with newLog
// from the group's records in the scheduler's log, in one pass: a snapshot
// read back whole resets the log, and the records after it replay on top.
func (r *Replica) recoverFrom(newLog func(snapEvery int) *slotlog.Log, opts DurabilityOptions) (RecoveryInfo, error) {
	if opts.Group < 0 || opts.Group >= len(r.io.floors) {
		return RecoveryInfo{}, fmt.Errorf("smr durability: group %d on a scheduler of %d groups", opts.Group, len(r.io.floors))
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dur = &durable{group: opts.Group}
	r.log = newLog(max(opts.SnapshotEvery, 0))
	rinfo, err := r.io.log.Replay(0, func(_ uint64, payload []byte) error {
		rec, mine, err := decodeWalEntry(payload, opts.Group)
		if err == nil && mine {
			r.stepLocked(slotlog.Input{Kind: slotlog.Recover, Record: rec}, nil, nil)
		}
		return err
	})
	if err != nil {
		return RecoveryInfo{}, err
	}
	snapAt := r.log.Info().SnapshotIndex
	eff := r.log.Step(slotlog.Input{Kind: slotlog.Open, Now: r.now()})
	if eff.Err != nil {
		return RecoveryInfo{}, eff.Err
	}
	r.carryOutLocked(eff, nil)
	li := r.log.Info()
	return RecoveryInfo{
		Recovered: rinfo.Records > 0, SnapshotApplied: snapAt,
		WalRecords: rinfo.Records, TornTail: rinfo.TornTail,
		Applied: li.Applied, OpenSlots: li.OpenSlots,
	}, nil
}

// journalLocked appends a step's records to the scheduler's log, if the
// replica is durable, buffered for the outbox consumer to commit; cut is the
// place of a snapshot among them, and ok false means an append failed.
func (r *Replica) journalLocked(recs []slotlog.Record) (cut snapCut, ok bool) {
	if r.dur == nil {
		return cut, true
	}
	for _, rec := range recs {
		bp := consensus.Scratch()
		rec.G = r.dur.group
		payload := appendWalEntry(*bp, rec)
		idx, err := r.io.log.AppendBuffered(payload) // copies the payload into its frame
		consensus.Release(bp, payload)
		if err != nil {
			return snapCut{}, false
		}
		r.dur.buffered = idx
		if rec.Critical {
			r.dur.critical = idx
		}
		if rec.Kind == slotlog.RecSnap {
			cut = snapCut{g: r.dur.group, from: cmp.Or(cut.from, idx), to: idx}
		}
	}
	return cut, true
}

// ReplicaInfo is one group's operational summary (shard.Info renders the
// INFO line from it): the log's, whether the group journals (its host reports
// the log itself), and its lease counters.
type ReplicaInfo struct {
	slotlog.Info
	Durable bool        `json:"durable"`
	Lease   *LeaseStats `json:"lease,omitempty"`
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
	return ReplicaInfo{Info: r.log.Info(), Durable: r.dur != nil, Lease: lst}
}
