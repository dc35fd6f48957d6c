package smr

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/smr/slotlog"
	"repro/internal/wal"
)

// TestRefusedRecoveryArmsNoTimer: a journal whose open slots include a state
// recovery cannot restore — a task-mode instance, which an object-mode slot
// refuses — refuses the replica, and arms none of the other open slots'
// new-ballot timers on the way. An armed one would fire within 2Δ, start a
// ballot and journal it, and go on re-arming for the life of the process: the
// refused replica is never handed to anyone who could close it.
func TestRefusedRecoveryArmsNoTimer(t *testing.T) {
	dir := t.TempDir()
	w, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	io := NewIOScheduler(w, 1)
	defer io.Close()
	cfg := consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}
	// journal records slot's state as an instance of mode left it right after
	// this replica proposed there.
	journal := func(slot int, mode core.Mode) {
		node := core.NewUnchecked(cfg, mode, core.DefaultOptions(), FixedLeaders{})
		node.Start()
		v, err := Command{ID: fmt.Sprintf("p0-%d", slot+1), Op: OpPut, Key: "k", Val: "v"}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		node.Propose(v)
		if _, err := w.Append(appendWalEntry(nil, slotlog.Record{Kind: slotlog.RecState, Slot: slot, State: node.Snapshot()})); err != nil {
			t.Fatal(err)
		}
	}
	const open = 20
	for slot := 0; slot < open; slot++ {
		journal(slot, core.ModeObject)
	}
	journal(open, core.ModeTask)
	before := w.Stats().NextIndex

	r, _, err := NewReplica(cfg, time.Millisecond, io, FixedLeaders{}, nil, ReplicaOptions{
		Durability: &DurabilityOptions{},
	})
	if err == nil {
		r.Close()
		t.Fatal("a task-mode state was restored into an object-mode slot")
	}
	// The slots' timers are 2Δ = 20 ms away: give them five times that.
	time.Sleep(100 * time.Millisecond)
	if after := w.Stats().NextIndex; after != before {
		t.Fatalf("the refused replica journaled %d records after construction: its open slots' timers are armed", after-before)
	}
}

// TestCrashTornSnapshotRestoresThePrevious: a crash that tears the WAL inside
// a snapshot of three parts leaves its run incomplete, and recovery ignores
// it: the previous whole snapshot — all that is left of the writes before it,
// as the log was truncated behind it — and the records after it come back,
// and no acknowledged write is lost. One process, 64 KiB segments; the store
// is 150 values of 4 KiB, more than twice the 256 KiB a part holds.
func TestCrashTornSnapshotRestoresThePrevious(t *testing.T) {
	const every, batches, perBatch = 4, 3, 50
	dir := t.TempDir()
	cfg := consensus.Config{ID: 0, N: 1, F: 0, E: 0, Delta: 10}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var w *wal.WAL
	var io *IOScheduler
	var r *Replica
	open := func(failAfter int64) RecoveryInfo {
		var winfo wal.OpenInfo
		var err error
		if w, winfo, err = wal.Open(dir, wal.Options{SegmentBytes: 64 << 10, FailpointLimit: failAfter}); err != nil {
			t.Fatal(err)
		}
		io = NewIOScheduler(w, 1)
		var info RecoveryInfo
		r, info, err = NewReplica(cfg, time.Millisecond, io, FixedLeaders{}, nil, ReplicaOptions{
			Durability: &DurabilityOptions{SnapshotEvery: every},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		info.TornTail = info.TornTail || winfo.TornTail // what opening the log truncated
		return info
	}
	shut := func() {
		r.Close()
		io.Close()
		_ = w.Close() // a torn log closes poisoned
	}
	acked := map[string]string{}
	put := func(cmd Command) error {
		_, err := r.Execute(ctx, cmd)
		if err == nil {
			for _, c := range append([]Command{cmd}, cmd.Subs...) {
				if c.Op == OpPut {
					acked[c.Key] = c.Val
				}
			}
		}
		return err
	}
	small := func(i int) Command { return Command{Op: OpPut, Key: fmt.Sprintf("later-%02d", i), Val: "v"} }

	// Commands 1-3 fill the store, 4 snapshots it (applied 4), 5-7 follow.
	open(0)
	for b := 0; b < batches; b++ {
		batch := Command{ID: fmt.Sprintf("b%d", b), Op: OpBatch}
		for i := 0; i < perBatch; i++ {
			batch.Subs = append(batch.Subs, Command{ID: fmt.Sprintf("b%d-%d", b, i), Op: OpPut, Key: fmt.Sprintf("big-%d-%02d", b, i), Val: strings.Repeat("x", 4<<10)})
		}
		if err := put(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 4; i <= 7; i++ {
		if err := put(small(i)); err != nil {
			t.Fatal(err)
		}
	}
	shut()
	// What the first life left: the log truncated behind one whole snapshot
	// of three parts or more.
	w, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var first uint64
	var last slotlog.Record
	if _, err := w.Replay(0, func(idx uint64, p []byte) error {
		rec, _, err := decodeWalEntry(p, 0)
		if first == 0 {
			first = idx
		}
		if err == nil && rec.Kind == slotlog.RecSnap && rec.Snap.Cut.Part == rec.Snap.Cut.Last {
			last = rec
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if first <= 1 || last.Slot != every || last.Snap.Cut.Last < 2 {
		t.Fatalf("the log starts at record %d and its last snapshot ends with %+v: want it truncated behind a snapshot of applied %d in three parts or more", first, last.Slot, every)
	}

	// Commands 8-10 follow; 11 calls for the next snapshot, which the
	// failpoint tears in its second part, 300 KiB into the reopened log.
	if info := open(300 << 10); info.SnapshotApplied != every || info.Applied != 7 {
		t.Fatalf("reopened with %+v, want the snapshot of applied %d and 7 applied", info, every)
	}
	for i := 8; i <= 10; i++ {
		if err := put(small(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := put(small(11)); err == nil {
		t.Fatal("the write that called for the torn snapshot was acknowledged")
	}
	shut()

	info := open(0)
	defer shut()
	if !info.TornTail || info.SnapshotApplied != every || info.Applied < 10 {
		t.Fatalf("recovered %+v: want a torn tail, the snapshot of applied %d, and at least 10 applied", info, every)
	}
	var torn []slotlog.Record // the parts of the snapshot at applied 11 the log holds
	if _, err := w.Replay(0, func(_ uint64, p []byte) error {
		if rec, _, err := decodeWalEntry(p, 0); err == nil && rec.Kind == slotlog.RecSnap && rec.Slot == 11 {
			torn = append(torn, rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(torn) == 0 || torn[len(torn)-1].Snap.Cut.Part == torn[len(torn)-1].Snap.Cut.Last {
		t.Fatalf("the log holds %d parts of the second snapshot: want it torn after its first", len(torn))
	}
	for k, v := range acked {
		if got, ok := r.Get(k); !ok || got != v {
			t.Fatalf("acknowledged %s lost: %q, %t", k, got, ok)
		}
	}
}
