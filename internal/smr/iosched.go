package smr

import "repro/internal/transport"

// IOScheduler is the out-of-lock I/O stage behind the outbox (outbox.go):
// one consumer goroutine that, per batch of entries, group-commits the WAL
// once, then sends messages and fires wakeups in FIFO order. A process has
// exactly one, owned by whatever hosts its replicas (shard.Runtime; a test
// standing in for it): every group's replica is handed the same scheduler,
// so fsyncs from all groups coalesce into a single group-commit stream.
//
// Sharing implies shared fate: every replica on the scheduler must append
// to the same underlying WAL (per-group views of it included), and a commit
// failure poisons every replica with entries in flight.
type IOScheduler struct {
	ob   *outbox
	done chan struct{} // closed when the consumer exits
}

// NewIOScheduler starts a scheduler. The caller owns it: Close it after
// every replica built on it has been closed or killed.
func NewIOScheduler() *IOScheduler {
	s := &IOScheduler{ob: newOutbox(), done: make(chan struct{})}
	go s.loop()
	return s
}

// enqueue hands one entry to the consumer. Called under the producing
// replica's lock; never blocks (the outbox is unbounded).
func (s *IOScheduler) enqueue(e outboxEntry) { s.ob.enqueue(e) }

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
	s.enqueue(outboxEntry{done: done})
	<-done
}

// Close drains queued entries and stops the consumer.
func (s *IOScheduler) Close() {
	s.ob.close()
	<-s.done
}

// loop is the single I/O consumer. Per batch it commits the journal once
// to the highest index any entry depends on (group commit across every
// step of every group in the batch), then sends and wakes in FIFO order. A
// commit failure poisons each entry's replica; from then on entries fail
// their waiters and send nothing.
func (s *IOScheduler) loop() {
	defer close(s.done)
	failed := false
	var failErr error
	for {
		batch, more := s.ob.take()
		if len(batch) > 0 {
			if !failed {
				// Every entry in one scheduler targets the same underlying
				// WAL (that is the contract of sharing), so committing
				// through the journal of the entry with the highest index
				// covers the whole batch.
				var maxIdx uint64
				var j Journal
				for _, e := range batch {
					if e.walIdx > maxIdx {
						maxIdx = e.walIdx
						j = e.r.journal()
					}
				}
				if j != nil && maxIdx > 0 {
					if err := j.Commit(maxIdx); err != nil {
						failed = true
						failErr = err
					}
				}
			}
			// The transport is reloaded per owner change, not per batch:
			// Kill detaches it under the replica lock, and entries queued
			// behind the detach must send nothing.
			var lastR *Replica
			var lastTr transport.Transport
			for _, e := range batch {
				if failed {
					if e.r != nil {
						e.r.IOFail(failErr)
					}
				} else if e.r != nil && len(e.msgs) > 0 {
					if e.r != lastR {
						lastR = e.r
						lastTr = e.r.currentTransport()
					}
					if lastTr != nil {
						for _, o := range e.msgs {
							_ = lastTr.Send(o.to, o.msg)
						}
					}
				}
				if e.post != nil && !failed {
					e.post()
				}
				for _, w := range e.wake {
					w.fire(!failed)
				}
				if e.done != nil {
					close(e.done)
				}
			}
		}
		if !more {
			return
		}
	}
}
