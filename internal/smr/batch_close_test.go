package smr

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/consensus"
)

// BatchQueued reports how many commands wait behind the in-flight flush.
// It lives in a _test file, so only the tests see it: the external batch
// tests wait on the queue with it instead of sleeping.
func (r *Replica) BatchQueued() int {
	r.mu.Lock()
	b := r.batch
	r.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// TestBatcherCloseWaitsForFlushers pins the golifecycle fix: close must not
// return while the flusher goroutine is still running, because the caller
// (Replica.Close, then its host) proceeds to tear down the WAL and
// transport the flusher would then touch. Before the fix, close returned immediately and the
// flusher kept running into the teardown.
func TestBatcherCloseWaitsForFlushers(t *testing.T) {
	// No transport, so no quorum: the flusher stays in Execute until Close.
	io := NewIOScheduler()
	defer io.Close()
	r, err := NewReplica(consensus.Config{ID: 0, N: 3, F: 1, E: 1, Delta: 10}, time.Millisecond, io)
	if err != nil {
		t.Fatal(err)
	}
	r.EnableAdaptiveBatching(4)
	b := r.batch

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the submitter gives up immediately; the flusher stays
	if err := r.Submit(ctx, Command{Op: OpNoop, ID: "probe"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit = %v, want context.Canceled", err)
	}

	r.Close()
	b.mu.Lock()
	flushing := b.flushing
	b.mu.Unlock()
	if flushing {
		t.Fatal("Close returned with the flusher goroutine still running")
	}

	// Closed batcher rejects new work without spawning anything.
	if err := r.Submit(context.Background(), Command{Op: OpNoop, ID: "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close = %v, want ErrClosed", err)
	}
}
