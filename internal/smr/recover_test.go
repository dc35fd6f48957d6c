package smr

import (
	"fmt"
	"path/filepath"
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
	before := w.NextIndex()

	r, _, err := NewReplica(cfg, time.Millisecond, io, FixedLeaders{}, nil, ReplicaOptions{
		Durability: &DurabilityOptions{Dir: dir},
	})
	if err == nil {
		r.Close()
		t.Fatal("a task-mode state was restored into an object-mode slot")
	}
	// The slots' timers are 2Δ = 20 ms away: give them five times that.
	time.Sleep(100 * time.Millisecond)
	if after := w.NextIndex(); after != before {
		t.Fatalf("the refused replica journaled %d records after construction: its open slots' timers are armed", after-before)
	}
}
