package smr

import (
	"repro/internal/consensus"
	"repro/internal/smr/slotlog"
)

// FixedLeaders is the LeaderView of a test that builds a bare replica, with
// no host to own an Ω: process p, never in doubt.
type FixedLeaders struct{ consensus.FixedLeader }

func (FixedLeaders) LeaderStable(int64) bool { return true }

// RetainSlots and RetainBytes expose the bounds of the decided tail to the
// external test package.
const (
	RetainSlots = slotlog.RetainSlots
	RetainBytes = slotlog.RetainBytes
)

// Compact retires every slot below applied−retain and returns the compaction
// floor in force: a test cutting closer than the peers' gossip has yet.
func (r *Replica) Compact(retain int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stepLocked(slotlog.Input{Kind: slotlog.Retire, Slot: r.log.Applied() - max(retain, 0)}, nil, nil)
	return r.log.Info().CompactFloor
}

// Seq is the last command sequence number r handed out: the next ID it makes
// is one past it.
func (r *Replica) Seq() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Seq()
}

// QueuedCommands reports how many commands wait in r's batcher to be cut
// into a chunk: a test that needs two riders in one chunk waits for both.
func (r *Replica) QueuedCommands() int {
	b := r.batch
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// DecidedSlotTimers counts r's decided slots and how many of them still
// hold a deadline.
func (r *Replica) DecidedSlotTimers() (decided, timers int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := r.log.Info()
	for n, seen := info.CompactFloor, 0; seen < info.Retained; n++ {
		if _, ok := r.log.Value(n); ok {
			if seen++; r.log.Deadline(n) != 0 {
				timers++
			}
		}
	}
	return info.Retained, timers
}

// Fire runs r's timer callback now, as an expiry of its deadline would.
func (r *Replica) Fire() { r.fire() }

// Queued reports how many entries wait in s for its consumer.
func (s *IOScheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// ReplyWrites counts the flushes s's session writers have made.
func (s *Server) ReplyWrites() uint64 { return s.ctr.replyWrites.Load() }
