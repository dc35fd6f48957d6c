package smr

import (
	"sync"

	"repro/internal/consensus"
)

// The outbox is the process's out-of-lock I/O stage: one queue (inside the
// IOScheduler the host hands every group's replica) for all of them.
// Protocol steps run under Replica.mu and only *compute*: outbound
// messages, WAL records (buffered, not yet fsynced), and waiter wakeups are
// captured into an outboxEntry and enqueued. A single consumer goroutine
// then, per batch of entries, (1) group-commits the WAL up to the highest
// index any entry needs, (2) sends the messages, (3) fires the wakeups — in
// that order, so the durability invariant "no message or client
// acknowledgement escapes before its WAL record is durable" holds exactly
// as it did when the fsync and the sends happened inside the lock, while
// the lock itself is held only for in-memory work.
//
// FIFO with a single consumer preserves the per-replica emission order;
// batching entries per wakeup of the consumer is what turns N protocol
// steps' records into one fdatasync (wal.Commit coalesces further across
// concurrent committers).

// wakeup is a deferred waiter notification. The channels are detached from
// the replica's slot table at queue time (under the lock), so haltLocked —
// which closes only channels still registered in the table — can never
// double-close one that a pending wakeup owns.
type wakeup struct {
	v    consensus.Value
	chs  []chan consensus.Value // Execute waiters; each has capacity 1
	done []chan struct{}        // WaitApplied waiters
}

// fire delivers the wakeup. ok=false means the replica failed before the
// entry's records became durable: value waiters see a closed channel
// (Execute maps that to ErrClosed) and applied waiters are released to
// re-check the replica state.
func (w wakeup) fire(ok bool) {
	if ok {
		for _, ch := range w.chs {
			ch <- w.v
		}
	} else {
		for _, ch := range w.chs {
			close(ch)
		}
	}
	for _, ch := range w.done {
		close(ch)
	}
}

// outboxEntry is one protocol step's deferred I/O. r is the replica the
// step ran on — the consumer reads its transport and, on a commit failure,
// poisons it; the queue interleaves entries from every group of the
// process, so the owner travels with the entry (nil on barrier sentinels and
// on the host's own entries, which carry post instead: IOScheduler.Post).
// walIdx is the WAL index that must be durable before
// msgs leave or wake fires (0: no durability dependency — no WAL, or a
// policy that does not sync on the hot path). Producers do NOT wait for
// their own entry — the pipeline is asynchronous, which is what lets
// entries pile up behind an in-flight fsync and share the next one. done,
// when non-nil, is closed once the entry and everything ahead of it (FIFO)
// has been committed, sent, and woken: the batcher hangs one on each
// chunk's proposal to time its local stage (emitDoneLocked), and
// Replica.SyncIO enqueues a sentinel entry carrying nothing else — a
// barrier for callers that need a step's effects externally visible.
type outboxEntry struct {
	r      *Replica
	walIdx uint64
	msgs   []outbound
	wake   []wakeup
	post   func()
	done   chan struct{}
}

// outbox is the unbounded FIFO between protocol steps (producers, under
// Replica.mu) and the consumer goroutine. Unbounded on purpose: enqueue
// runs while the replica lock is held and must never block, and a bounded
// channel would deadlock Close (producer stuck on a full queue vs consumer
// needing the lock the producer holds).
type outbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []outboxEntry
	closed bool
}

func newOutbox() *outbox {
	ob := &outbox{}
	ob.cond = sync.NewCond(&ob.mu)
	return ob
}

// enqueue appends one entry without ever blocking. After close, nothing
// will perform the entry's I/O, but its waiters must not leak: they are
// failed on the spot.
func (ob *outbox) enqueue(e outboxEntry) {
	ob.mu.Lock()
	if ob.closed {
		ob.mu.Unlock()
		for _, w := range e.wake {
			w.fire(false)
		}
		if e.done != nil {
			close(e.done)
		}
		return
	}
	ob.queue = append(ob.queue, e)
	ob.cond.Signal()
	ob.mu.Unlock()
}

// take removes and returns everything queued, blocking while the queue is
// empty. more=false means the outbox is closed AND drained: the consumer
// processes the returned batch (possibly empty) and exits.
func (ob *outbox) take() (batch []outboxEntry, more bool) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for len(ob.queue) == 0 && !ob.closed {
		ob.cond.Wait()
	}
	batch = ob.queue
	ob.queue = nil
	return batch, !ob.closed
}

// close stops the outbox: queued entries are still drained by the consumer,
// new entries are rejected (their waiters failed).
func (ob *outbox) close() {
	ob.mu.Lock()
	ob.closed = true
	ob.cond.Broadcast()
	ob.mu.Unlock()
}
