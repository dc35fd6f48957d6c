package smr

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// batcher accumulates commands and replicates them as a single OpBatch
// command in one consensus instance — the standard throughput amplifier for
// SMR (many client operations per protocol round trip). It sits strictly
// above the replica: the consensus layer sees one value per slot either way.
//
// The window is adaptive: a command finding the batcher idle flushes
// immediately; commands arriving while that flush is in flight accumulate
// and go out together the moment it completes. This is the classic
// group-commit heuristic — batch-what-arrives-during-commit — and costs an
// uncontended client one goroutine handoff, no timer.
type batcher struct {
	replica *Replica
	maxSize int

	mu       sync.Mutex
	pending  []Command
	waiters  []chan error
	flushing bool
	closed   bool
	batches  uint64 // consensus instances submitted
	cmds     uint64 // commands carried by them

	// wg accounts the flusher goroutine. Add happens under mu alongside the
	// closed check, so close() — which sets closed under mu and then waits —
	// either sees the Add or prevents the spawn; a flusher that slipped in
	// after close would otherwise touch a replica being torn down.
	wg sync.WaitGroup
}

// EnableAdaptiveBatching turns on write batching for this replica's
// Submit-based APIs (KV included; see the batcher comment): no window to
// wait out when idle, full batching under concurrency. maxSize caps one
// batch (0 = default 64). Must be called before the replica is shared
// between goroutines.
func (r *Replica) EnableAdaptiveBatching(maxSize int) {
	if maxSize <= 0 {
		maxSize = 64
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batch = &batcher{replica: r, maxSize: maxSize}
}

// BatchStats is the batcher's counter surface (expvar, F4b).
type BatchStats struct {
	Mode    string `json:"mode"` // off, adaptive
	Batches uint64 `json:"batches"`
	Cmds    uint64 `json:"cmds"`
}

// BatchStats reports batching mode and counters.
func (r *Replica) BatchStats() BatchStats {
	r.mu.Lock()
	b := r.batch
	r.mu.Unlock()
	if b == nil {
		return BatchStats{Mode: "off"}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BatchStats{Mode: "adaptive", Batches: b.batches, Cmds: b.cmds}
}

// executeBatched enqueues cmd and blocks until its batch is decided and
// applied, or ctx is done — the command stays queued or proposed and may
// still commit afterwards, and the other riders of its chunk are not
// failed by it. The flush never runs on the submitting goroutine: the
// caller must stay free to return at its own deadline.
func (b *batcher) executeBatched(ctx context.Context, cmd Command) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.pending = append(b.pending, cmd)
	ch := make(chan error, 1)
	b.waiters = append(b.waiters, ch)
	if !b.flushing {
		b.flushing = true
		b.wg.Add(1)
		go b.flushLoop()
	}
	b.mu.Unlock()

	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		return fmt.Errorf("smr batch execute: %w", ctx.Err())
	}
}

// flushLoop drains the queue in maxSize chunks until it is empty, then
// parks (flushing=false). While one chunk is in consensus, new arrivals
// accumulate behind it and form the next chunk — the adaptive window is
// exactly the in-flight commit's duration.
func (b *batcher) flushLoop() {
	defer b.wg.Done()
	var woke int
	var lastFlush time.Duration
	for {
		if woke > 2 && lastFlush > 0 {
			// The waiters just released are this batcher's own future load:
			// give them one beat to resubmit so the next chunk carries them
			// all. Without it the loop re-collects before they reach the
			// queue and the population splits into two half-size batches
			// alternating forever. The beat is a fraction of the commit just
			// paid, so it never dominates the cycle, and small populations
			// (woke <= 2) skip it: for them the delay costs more latency
			// than the one fsync it could merge.
			gather := lastFlush / 4
			if gather > time.Millisecond {
				gather = time.Millisecond
			}
			time.Sleep(gather)
		}
		cmds, waiters, ok := b.takeChunk()
		if !ok {
			return
		}
		start := time.Now()
		b.flushOne(cmds, waiters)
		lastFlush = time.Since(start)
		woke = len(cmds)
	}
}

// takeChunk detaches up to maxSize pending commands for flushing; when the
// queue is empty (or the batcher closed) it parks the batcher instead
// (flushing = false) and reports false.
func (b *batcher) takeChunk() ([]Command, []chan error, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.pending)
	if n == 0 || b.closed {
		b.flushing = false
		return nil, nil, false
	}
	if n > b.maxSize {
		n = b.maxSize
	}
	cmds := b.pending[:n:n]
	waiters := b.waiters[:n:n]
	b.pending = b.pending[n:]
	b.waiters = b.waiters[n:]
	return cmds, waiters, true
}

// flushOne replicates one chunk and distributes the outcome to its
// waiters. A single command skips the OpBatch wrapper entirely, so an
// uncontended submit replicates exactly what an unbatched Submit would.
func (b *batcher) flushOne(cmds []Command, waiters []chan error) {
	var batch Command
	if len(cmds) == 1 {
		batch = cmds[0]
	} else {
		batch = Command{Op: OpBatch, Subs: cmds}
		// The batch needs its own unique ID (sub-IDs are already unique,
		// but the batch value must be distinguishable as a whole).
		b.replica.mu.Lock()
		b.replica.seq++
		batch.ID = fmt.Sprintf("%s-batch-%d", b.replica.cfg.ID, b.replica.seq)
		b.replica.mu.Unlock()
	}
	b.mu.Lock()
	b.batches++
	b.cmds += uint64(len(cmds))
	b.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	slot, err := b.replica.Execute(ctx, batch)
	if err == nil {
		err = b.replica.WaitApplied(ctx, slot)
	}
	if err == nil && b.replica.takeFenced(slot) {
		// Same downgrade as Submit: the chunk applied, but a concurrent
		// leaseholder may not have observed it, so the ack must stay
		// ambiguous rather than definite.
		err = ErrLeaseFenced
	}
	for _, ch := range waiters {
		ch <- err
	}
}

// close fails the queued waiters and waits for the flusher goroutine to
// exit; chunks already detached by an in-flight flush report their own
// outcome (the replica is marked closed before close is called, so those
// flushes fail fast in Execute). Waiting outside b.mu is essential: an
// in-flight flusher takes the lock to detach its chunk or park, and must
// not deadlock against its own reaper.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	for _, ch := range b.waiters {
		ch <- ErrClosed
	}
	b.pending, b.waiters = nil, nil
	b.mu.Unlock()
	b.wg.Wait()
}
