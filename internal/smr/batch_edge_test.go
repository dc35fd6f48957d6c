package smr_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/smr"
	"repro/internal/transport"
)

// Batching must not tax an idle client: a lone sequential writer gets one
// consensus instance per command (no OpBatch wrapper, no window sleep), so
// applied slots == writes.
func TestAdaptiveBatchingIdleFastPath(t *testing.T) {
	replicas, cleanup := startCluster(t, 3, 1, 1)
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	kv := replicas[0]
	for i := 0; i < 3; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if applied := replicas[0].Applied(); applied != 3 {
		t.Fatalf("applied %d slots for 3 idle writes, want 3", applied)
	}
	st := replicas[0].BatchStats()
	if st.Batches != 3 || st.Cmds != 3 {
		t.Fatalf("stats = %+v, want 3 batches of 3 commands", st)
	}
}

// holdWindow cuts every mesh link and fills the batcher's window: it
// submits one write per chunk the window admits — one at a serial depth,
// smr.MaxBatchDepth once pipelined — and returns when they are all in
// consensus. Until release heals the mesh, every later submit queues
// behind the stuck chunks, so the test decides exactly what the following
// chunks carry; release then waits for the held writes (the protocol's own
// retransmission completes them).
func holdWindow(t *testing.T, mesh *cluster.Fabric, r *smr.Replica, pipelined bool) (release func()) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	chunks := 1
	if pipelined {
		r.PipelineBatches()
		chunks = smr.MaxBatchDepth
	} else {
		r.SerialBatches()
	}
	mesh.SetFault(func(from, to consensus.ProcessID) transport.FaultVerdict {
		return transport.FaultVerdict{Drop: true}
	})
	held := make(chan error, chunks)
	for i := 0; i < chunks; i++ {
		i := i
		go func() { held <- r.Put(ctx, fmt.Sprintf("held%d", i), "v") }()
		// One at a time, so each is a chunk of its own.
		waitFor(t, "a held chunk to launch", func() bool { return r.BatchInflight() == i+1 })
	}
	return func() {
		t.Helper()
		defer cancel()
		mesh.SetFault(nil)
		for i := 0; i < chunks; i++ {
			if err := <-held; err != nil {
				t.Fatalf("held write after heal: %v", err)
			}
		}
	}
}

// eachWindow runs test against the batcher one chunk at a time, as
// loopback commits set it, and pipelined to its full depth.
func eachWindow(t *testing.T, test func(t *testing.T, pipelined bool)) {
	for _, pipelined := range []bool{false, true} {
		pipelined := pipelined
		t.Run(fmt.Sprintf("pipelined=%t", pipelined), func(t *testing.T) { test(t, pipelined) })
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// chunkKeys returns, per applied slot at r, the keys of the commands the
// slot carried (one for a bare command, several for an OpBatch).
func chunkKeys(t *testing.T, r *smr.Replica) (keys [][]string) {
	t.Helper()
	for slot := 0; slot < r.Applied(); slot++ {
		v, ok := r.LogValue(slot)
		if !ok {
			continue
		}
		cmd, err := smr.DecodeCommand(v)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		subs := cmd.Subs
		if cmd.Op != smr.OpBatch {
			subs = []smr.Command{cmd}
		}
		var ks []string
		for _, sub := range subs {
			ks = append(ks, sub.Key)
		}
		keys = append(keys, ks)
	}
	return keys
}

// An idle batcher's first flush must not run on the submitting goroutine:
// with no quorum the flush cannot finish, and a caller with a 50 ms
// deadline must still get its context error at the deadline (the flush ran
// inline once, pinning the caller for the flusher's own two-minute bound).
func TestBatchIdleFlushHonorsCallerContext(t *testing.T) {
	replicas, cleanup := startCluster(t, 3, 1, 1)
	defer cleanup()
	replicas[1].Close()
	replicas[2].Close()
	kv := replicas[0]

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- kv.Put(ctx, "k", "v") }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Put with a 50ms deadline still blocked after 1s")
	}
}

// A caller whose context dies while its command waits in a chunk gets its
// error at the deadline, but the command is already queued: the chunk must
// still commit, the other rider of the same chunk must succeed, and the
// abandoned waiter channel (capacity 1, ahead of the rider's in the chunk)
// must absorb the late result without blocking the chunk's goroutine — with
// one chunk in flight ahead of it, or a full window of them.
func TestBatchCtxCancelMidBatch(t *testing.T) {
	eachWindow(t, func(t *testing.T, pipelined bool) {
		c := newTestCluster(t, 3, 1, 1, procOptions{})
		c.pinLogs() // chunkKeys reads the log back
		replicas := c.replicas()
		kv := replicas[0]
		release := holdWindow(t, c.fab, replicas[0], pipelined)

		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		if err := kv.Put(ctx, "late", "v"); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
		if waited := time.Since(start); waited > time.Second {
			t.Fatalf("abandoning caller returned after %v, want ~50ms", waited)
		}
		long, cancelLong := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancelLong()
		rider := make(chan error, 1)
		go func() { rider <- kv.Put(long, "rider", "v") }()
		waitFor(t, "the rider to queue behind late", func() bool { return replicas[0].BatchQueued() == 2 })
		release()

		if err := <-rider; err != nil {
			t.Fatalf("rider of the abandoned caller's chunk failed: %v", err)
		}
		if _, ok := kv.Get("late"); !ok {
			t.Fatal("abandoned command never committed")
		}
		keys := chunkKeys(t, replicas[0])
		shared := false
		for _, ks := range keys {
			if len(ks) == 2 && ks[0] == "late" && ks[1] == "rider" {
				shared = true
			}
		}
		if !shared {
			t.Fatalf("late and rider did not share a chunk: slots carry %v", keys)
		}
	})
}

// Close racing chunks in flight: every submission resolves (either applied
// or ErrClosed), nothing deadlocks, nothing panics. Pipelined, the writers
// are several chunks' worth and Close finds them launched, queued and
// resolving at once.
func TestBatchCloseRacesFlush(t *testing.T) {
	eachWindow(t, func(t *testing.T, pipelined bool) {
		c := newTestCluster(t, 3, 1, 1, procOptions{})
		kv := c.replicas()[0]
		writers := 24
		if pipelined {
			c.replicas()[0].PipelineBatches()
			writers = 200
		}

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for i := 0; i < writers; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- kv.Put(ctx, fmt.Sprintf("c%d", i), "v")
			}()
		}
		time.Sleep(2 * time.Millisecond)
		c.close() // closes every process while writes are in flight
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil && !errors.Is(err, smr.ErrClosed) {
				t.Fatalf("unexpected error: %v", err)
			}
		}
		if n := c.replicas()[0].BatchInflight(); n != 0 {
			t.Fatalf("%d chunks still in flight after close", n)
		}
	})
}

// maxSize is a hard cap: an overflowing queue is split into several
// batches, each at most maxSize commands (64, the size every runtime's
// groups batch with), and none are lost — launched one after the other, or
// overlapped as the window frees up.
func TestBatchMaxSizeOverflowSplits(t *testing.T) {
	eachWindow(t, func(t *testing.T, pipelined bool) {
		c := newTestCluster(t, 3, 1, 1, procOptions{})
		c.pinLogs() // chunkKeys reads the log back
		replicas := c.replicas()
		const maxSize = 64
		kv := replicas[0]
		release := holdWindow(t, c.fab, replicas[0], pipelined)
		held := replicas[0].BatchInflight()
		before := int(replicas[0].BatchStats().Cmds) // the held writes

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		const writers = 2*maxSize + 10
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for i := 0; i < writers; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := kv.Put(ctx, fmt.Sprintf("s%d", i), "v"); err != nil {
					errs <- err
				}
			}()
		}
		waitFor(t, "the writers to pile up behind the held window", func() bool { return replicas[0].BatchQueued() == writers })
		release()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for i := 0; i < writers; i++ {
			if _, ok := kv.Get(fmt.Sprintf("s%d", i)); !ok {
				t.Fatalf("s%d missing", i)
			}
		}
		keys := chunkKeys(t, replicas[0])
		total, full := 0, 0
		for slot, ks := range keys {
			if len(ks) > maxSize {
				t.Fatalf("slot %d batch has %d commands, cap %d", slot, len(ks), maxSize)
			}
			if len(ks) == maxSize {
				full++
			}
			total += len(ks)
		}
		if total != writers+before {
			t.Fatalf("log carries %d commands, want %d", total, writers+before)
		}
		if full < 2 {
			t.Fatalf("%d full batches among %v: the queue never overflowed maxSize", full, keys)
		}
		st := replicas[0].BatchStats()
		if st.Cmds != uint64(writers+before) {
			t.Fatalf("stats cmds = %d, want %d", st.Cmds, writers+before)
		}
		if pipelined && st.Overlapped < uint64(held) {
			t.Fatalf("stats = %+v: the overflow was not launched into an open window", st)
		}
	})
}
