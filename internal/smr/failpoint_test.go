package smr_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wal"
)

// tapTransport wraps a process's endpoint and, once armed, counts the
// slot-protocol messages for slots from the armed one up that actually
// leave it. Status gossip rides along on the same transport but carries no
// new protocol state, and a decided earlier slot still answers a peer's
// late vote with its decision; neither is counted there — sends counts every
// message of any kind that leaves once armed, the process's own included.
type tapTransport struct {
	transport.Transport
	from      atomic.Int64 // armed slot + 1; 0: not armed
	slotSends atomic.Int64
	sends     atomic.Int64
}

func (tt *tapTransport) arm(slot int) { tt.from.Store(int64(slot) + 1) }

func (tt *tapTransport) Send(to consensus.ProcessID, msg consensus.Message) error {
	if from := tt.from.Load(); from > 0 {
		tt.sends.Add(1)
		if sm, ok := inner(msg).(*smr.SlotMessage); ok && int64(sm.Slot) >= from-1 {
			tt.slotSends.Add(1)
		}
	}
	return tt.Transport.Send(to, msg)
}

// durableUnder makes every process durable at fsync=always under base;
// hook0, when set, runs before each of process 0's fsyncs.
func durableUnder(base string, hook0 func()) func(i int) *shard.Durability {
	return func(i int) *shard.Durability {
		d := &shard.Durability{Dir: filepath.Join(base, fmt.Sprintf("r%d", i)), Policy: wal.SyncAlways}
		if i == 0 {
			d.SyncHook = hook0
		}
		return d
	}
}

// TestBlockedFsyncStallsSlotMessagesAndCompletions pins the core out-of-lock
// invariant with a failpoint: when the proposer's fsync blocks, no protocol
// message for the step leaves the process and the client call does not
// complete — durability gates visibility, not just eventually but per step.
// Releasing the fsync lets the pipeline drain and the command decide.
func TestBlockedFsyncStallsSlotMessagesAndCompletions(t *testing.T) {
	stalled := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // never leave the outbox consumer wedged on test failure

	var armed atomic.Bool
	var stallOnce sync.Once
	hook := func() {
		if !armed.Load() {
			return
		}
		stallOnce.Do(func() { close(stalled) })
		<-release
	}

	var tap *tapTransport
	c := newTestCluster(t, 3, 1, 1, procOptions{
		dur: durableUnder(t.TempDir(), hook),
		bind0: func(tr transport.Transport) transport.Transport {
			tap = &tapTransport{Transport: tr}
			return tap
		},
	})
	replicas := c.replicas() // closed by t.Cleanup: after unblock, a wedged consumer cannot drain

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	kv := replicas[0]
	if err := kv.Put(ctx, "warm", "up"); err != nil {
		t.Fatalf("warm-up put: %v", err)
	}
	replicas[0].SyncIO() // drain the pipeline so the next fsync is ours

	armed.Store(true)
	tap.arm(replicas[0].Applied()) // the write below proposes at or above it
	done := make(chan error, 1)
	go func() { done <- kv.Put(ctx, "k", "v") }()

	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("proposing never reached an fsync")
	}
	// The fsync for the propose record is now blocked. Give the pipeline
	// ample opportunity to leak before asserting it did not.
	time.Sleep(100 * time.Millisecond)
	if got := tap.slotSends.Load(); got != 0 {
		t.Fatalf("%d slot message(s) left the proposer before its WAL record was durable", got)
	}
	select {
	case err := <-done:
		t.Fatalf("Put completed (err=%v) before its WAL record was durable", err)
	default:
	}

	unblock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("put after release: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("put did not complete after fsync was released")
	}
	if got := tap.slotSends.Load(); got == 0 {
		t.Fatal("no slot messages sent even after fsync was released")
	}
	if v, ok := kv.Get("k"); !ok || v != "v" {
		t.Fatalf("Get(k) = %q, %t after decided put", v, ok)
	}
}
