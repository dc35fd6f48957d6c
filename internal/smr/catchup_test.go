package smr_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/smr"
	"repro/internal/transport"
)

// TestLaggingReplicaCatchesUpViaSnapshot cuts one replica off while the
// other two retire the slots it missed — by an explicit Compact, and by the
// apply loop on its own once more than the retain window has been decided —
// so it cannot recover slot by slot, only via snapshot.
func TestLaggingReplicaCatchesUpViaSnapshot(t *testing.T) {
	t.Run("compact", func(t *testing.T) { testLaggingReplicaCatchesUp(t, 12, true) })
	t.Run("automatic", func(t *testing.T) {
		if testing.Short() {
			t.Skip("drives more than the retain window of slots")
		}
		testLaggingReplicaCatchesUp(t, smr.RetainSlots+200, false)
	})
}

func testLaggingReplicaCatchesUp(t *testing.T, writes int, compact bool) {
	c := newTestCluster(t, 3, 1, 1, procOptions{})
	replicas := c.replicas()

	// Partition replica 2 (nothing reaches it), then commit a batch of
	// writes through p0.
	c.fab.SetFault(func(_, to consensus.ProcessID) transport.FaultVerdict {
		return transport.FaultVerdict{Drop: to == 2}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	kv := smr.NewKV(replicas[0])
	for i := 0; i < writes; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if replicas[2].Applied() != 0 {
		t.Fatalf("partitioned replica applied %d slots", replicas[2].Applied())
	}

	if compact {
		// Compact the healthy replicas below their applied index.
		if floor := replicas[0].Compact(0); floor != replicas[0].Applied() {
			t.Fatalf("compact floor = %d, want %d", floor, replicas[0].Applied())
		}
		replicas[1].Compact(0)
	} else {
		// Nobody compacts: the state behind applied is bounded anyway.
		info := replicas[0].Info()
		if want := info.Applied - smr.RetainSlots; info.CompactFloor != want || want <= 0 {
			t.Fatalf("compact floor = %d after %d applied, want %d", info.CompactFloor, info.Applied, want)
		}
		if info.OpenSlots > 4 {
			t.Fatalf("%d open slots on an idle replica", info.OpenSlots)
		}
		if _, ok := replicas[0].LogValue(info.Applied - 1); !ok {
			t.Fatal("slot inside the retain window missing from log")
		}
	}
	if _, ok := replicas[0].LogValue(0); ok {
		t.Fatal("retired slot 0 still in log")
	}

	// Heal the partition; the status gossip announces the healthy applied
	// index and replica 2 installs a snapshot.
	c.fab.SetFault(nil)
	deadline := time.Now().Add(30 * time.Second)
	for replicas[2].Applied() < writes {
		if time.Now().After(deadline) {
			t.Fatalf("lagging replica stuck at %d/%d applied", replicas[2].Applied(), writes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < writes; i++ {
		if v, ok := replicas[2].Get(fmt.Sprintf("k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q ok=%v after catch-up", i, v, ok)
		}
	}

	// And the caught-up replica can serve writes again.
	kv2 := smr.NewKV(replicas[2])
	if err := kv2.Put(ctx, "after", "catchup"); err != nil {
		t.Fatalf("write through caught-up replica: %v", err)
	}
	if v, _ := kv2.Get("after"); v != "catchup" {
		t.Fatalf("after = %q", v)
	}
}

// TestSnapshotExportInstall takes a state transfer down the path production
// takes. Processes 0 and 1 are the live fast quorum; endpoint 2 is the test
// standing in for a straggler: it asks replica 0 for its state and hands the
// reply to a detached replica 2 through Handle.
func TestSnapshotExportInstall(t *testing.T) {
	c := newTestCluster(t, 3, 1, 1, procOptions{})
	replicas := c.replicas()
	replies := make(chan *smr.CatchupReply, 1)
	c.fab.Attach(2, func(_ consensus.ProcessID, msg consensus.Message) {
		if m, ok := inner(msg).(*smr.CatchupReply); ok {
			select {
			case replies <- m:
			default: // one reply is enough; never block the mesh
			}
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := smr.NewKV(replicas[0]).Put(ctx, "a", "1"); err != nil {
		t.Fatal(err)
	}

	replicas[0].Handle(2, &smr.CatchupRequest{From: 0})
	var reply *smr.CatchupReply
	select {
	case reply = <-replies:
	case <-ctx.Done():
		t.Fatal("no catch-up reply")
	}
	fresh := replicas[2]
	fresh.Handle(0, reply)
	if v, ok := fresh.Get("a"); !ok || v != "1" {
		t.Fatalf("restored Get(a) = %q ok=%v", v, ok)
	}
	if fresh.Applied() != replicas[0].Applied() {
		t.Fatalf("applied %d != %d", fresh.Applied(), replicas[0].Applied())
	}
}

func TestCompactKeepsRetainedWindow(t *testing.T) {
	replicas, cleanup := startCluster(t, 3, 1, 1)
	defer cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	kv := smr.NewKV(replicas[0])
	for i := 0; i < 5; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	applied := replicas[0].Applied()
	floor := replicas[0].Compact(2)
	if floor != applied-2 {
		t.Fatalf("floor = %d, want %d", floor, applied-2)
	}
	if _, ok := replicas[0].LogValue(floor - 1); ok {
		t.Fatal("compacted slot still in log")
	}
	if _, ok := replicas[0].LogValue(applied - 1); !ok {
		t.Fatal("retained slot missing from log")
	}
	// Compacting backwards is a no-op.
	if got := replicas[0].Compact(100); got != floor {
		t.Fatalf("floor moved backwards: %d", got)
	}
}
