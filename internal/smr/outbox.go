package smr

import (
	"slices"
	"sync"

	"repro/internal/consensus"
	"repro/internal/smr/slotlog"
	"repro/internal/wal"
)

// The outbox is the process's out-of-lock I/O stage: one queue, the
// IOScheduler the host hands every group's replica, for all of them.
// Protocol steps run under Replica.mu and only *compute*: outbound
// messages, WAL records (buffered, not yet fsynced), and callers' verdicts
// are captured into an outboxEntry and enqueued. A single consumer goroutine
// then, per batch of entries, (1) group-commits the process's log up to the
// highest index any entry needs, (2) sends the messages, (3) ends the
// callers' waits — in that order, so the durability rule "no message or
// client acknowledgement escapes before its WAL record is durable" holds
// exactly as it did when the fsync and the sends happened inside the lock,
// while the lock itself is held only for in-memory work.
//
// FIFO with a single consumer preserves the per-replica emission order;
// batching entries per wakeup of the consumer is what turns N protocol
// steps' records into one fdatasync (wal.Commit coalesces further across
// concurrent committers).

// delivery is one caller's verdict, detached from the replica's riders at
// queue time: as the log gave it, or Closed if the entry's commit failed.
type delivery struct {
	fn func(slotlog.Verdict)
	v  slotlog.Verdict
}

func (d delivery) fire(ok bool) {
	if !ok {
		d.v.Outcome = slotlog.Closed
	}
	d.fn(d.v)
}

// outboxEntry is one protocol step's deferred I/O. r is the replica the
// step ran on — the consumer sends on its view and, on a commit failure,
// poisons it; the queue interleaves entries from every group of the
// process, so the owner travels with the entry (nil on barrier sentinels and
// on the host's own entries, which carry post instead: IOScheduler.Post).
// walIdx is the index of the process's log that must be durable before
// msgs leave or wake fires (0: no durability dependency); cut, a snapshot the
// step journaled. Producers do NOT
// wait for their own entry — the pipeline is asynchronous, which is what
// lets entries pile up behind an in-flight fsync and share the next one.
// done, when non-nil, runs once the entry and everything ahead of it (FIFO)
// has been committed, sent, and woken: the batcher hangs one on each chunk's
// proposal to time its local stage, and Replica.SyncIO enqueues a sentinel
// entry carrying nothing else — a barrier for callers that need a step's
// effects externally visible.
type outboxEntry struct {
	r      *Replica
	walIdx uint64
	cut    snapCut
	msgs   []consensus.Send
	wake   []delivery
	post   func()
	done   func()
}

// IOScheduler is the outbox: the unbounded FIFO between protocol steps
// (producers, under Replica.mu) and its one consumer goroutine, which
// commits the process's log. A process has exactly one, owned by whatever
// hosts its replicas (shard.Runtime; a test standing in for it), and every
// group's replica is handed the same one, so fsyncs from all groups
// coalesce into a single group-commit stream. Sharing is shared fate: a
// commit failure fails every entry from then on, whichever group queued it.
// It is also the groups' only handle on that log: they append, replay and
// truncate through it (truncateBefore keeps the segments any group needs).
//
// Unbounded on purpose: enqueue runs while a replica lock is held and must
// never block, and a bounded channel would deadlock Close (producer stuck
// on a full queue vs consumer needing the lock the producer holds).
type IOScheduler struct {
	log  *wal.WAL      // nil: an in-memory process
	done chan struct{} // closed when the consumer exits

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []outboxEntry
	closed bool

	// floors[g] is group g's truncation request — the index of the first
	// record of its newest durable snapshot — under floorMu. A group that
	// has not snapshotted, or whose replica is not built yet, pins 0: its
	// state still lives only in the log.
	floorMu sync.Mutex
	floors  []uint64
}

// NewIOScheduler starts the scheduler of a process whose one log is log
// (nil for a process that journals nothing) and whose groups are numbered
// 0..groups-1. The caller owns the log: Close the scheduler after every
// replica built on it has been closed, and the log after that.
func NewIOScheduler(log *wal.WAL, groups int) *IOScheduler {
	s := &IOScheduler{log: log, done: make(chan struct{}), floors: make([]uint64, groups)}
	s.cond = sync.NewCond(&s.mu)
	go s.loop()
	return s
}

// snapCut is a snapshot's records in the log, from..to, of group g (to 0:
// none): once to is durable, g needs nothing before from.
type snapCut struct {
	g        int
	from, to uint64
}

// truncateBefore records group g's floor and truncates the log below the
// minimum floor across all groups: a segment may only go once no group
// needs it for recovery. Floors only rise, so a stale request lowers
// nothing; a group that snapshots rarely simply keeps the tail long —
// correctness never depends on truncation happening.
func (s *IOScheduler) truncateBefore(g int, index uint64) (int, error) {
	s.floorMu.Lock()
	s.floors[g] = max(s.floors[g], index)
	min := slices.Min(s.floors)
	s.floorMu.Unlock()
	// Out of the floor lock: truncation takes the log's own lock, and a
	// racing truncation with a smaller minimum is a harmless no-op.
	return s.log.TruncateBefore(min)
}

// enqueue appends one entry without ever blocking. After Close, nothing
// will perform the entry's I/O, but its waiters must not leak: they are
// failed on the spot.
func (s *IOScheduler) enqueue(e outboxEntry) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for _, w := range e.wake {
			w.fire(false)
		}
		if e.done != nil {
			e.done()
		}
		return
	}
	s.queue = append(s.queue, e)
	s.cond.Signal()
	s.mu.Unlock()
}

// take removes and returns everything queued, blocking while the queue is
// empty. more=false means the scheduler is closed AND drained: the consumer
// processes the returned batch (possibly empty) and exits.
func (s *IOScheduler) take() (batch []outboxEntry, more bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	batch = s.queue
	s.queue = nil
	return batch, !s.closed
}

// Post queues fn as an entry no replica owns: how the host sends what the
// process, not a group, has to say (heartbeats, applied-index gossip). fn runs
// in queue position, after the commit of the batch it is taken with — a disk
// that hangs silences the process — and never once a commit has failed.
func (s *IOScheduler) Post(fn func()) { s.enqueue(outboxEntry{post: fn}) }

// barrier blocks until every entry queued before the call has been fully
// processed — WAL committed, messages sent, waiters woken. It is how a
// replica drains its own entries on shutdown without stopping the stream
// the other groups are still using.
func (s *IOScheduler) barrier() {
	done := make(chan struct{})
	s.enqueue(outboxEntry{done: func() { close(done) }})
	<-done
}

// Close drains queued entries and stops the consumer: entries queued later
// are rejected, their waiters failed.
func (s *IOScheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
}

// loop is the single I/O consumer. Per batch it commits the log once to the
// highest index any entry depends on (group commit across every step of
// every group in the batch), then sends and wakes in FIFO order, then
// truncates the log behind each snapshot a commit has made durable (none
// waits for a commit of its own). A commit or truncation failure poisons each
// entry's replica; from then on entries fail their waiters and send nothing.
func (s *IOScheduler) loop() {
	defer close(s.done)
	var failErr error
	var committed uint64
	var cuts []snapCut // not yet known durable
	for {
		batch, more := s.take()
		var maxIdx uint64
		for _, e := range batch {
			maxIdx = max(maxIdx, e.walIdx)
			if e.cut.to > 0 {
				cuts = append(cuts, e.cut)
			}
		}
		if failErr == nil && maxIdx > 0 {
			failErr = s.log.Commit(maxIdx)
			committed = max(committed, maxIdx)
		}
		for _, e := range batch {
			if failErr != nil {
				if e.r != nil {
					e.r.IOFail(failErr)
				}
			} else {
				for _, o := range e.msgs {
					_ = e.r.tr.Send(o.To, o.Msg)
				}
			}
			if e.post != nil && failErr == nil {
				e.post()
			}
			for _, w := range e.wake {
				w.fire(failErr == nil)
			}
			if e.done != nil {
				e.done()
			}
		}
		for failErr == nil && len(cuts) > 0 && cuts[0].to <= committed {
			_, failErr = s.truncateBefore(cuts[0].g, cuts[0].from)
			cuts = cuts[1:]
		}
		if !more {
			return
		}
	}
}
