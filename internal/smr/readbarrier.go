package smr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The read gate coalesces concurrent linearizable reads behind shared
// no-op consensus rounds (read-index batching). The first GETL with no
// leader becomes the round leader; reads arriving while its round is in
// flight queue up, and when the round completes the leader hands
// leadership to one of them — whose round then covers every other queued
// read (each queued read joined before that round's no-op was proposed, so
// the round is a valid barrier for it). One consensus round thus retires N
// reads instead of 1, without any spawned goroutine: leadership is always
// carried by a caller already blocked in ReadBarrier.

// readRoundTimeout bounds a shared no-op round. The round deliberately
// does NOT use any single caller's context: a canceled rider must not
// poison the round every other rider is waiting on.
const readRoundTimeout = 30 * time.Second

// readWaiter states (atomic): a waiter is claimed by whoever CASes first —
// the round leader delivering a turn, or the waiter itself abandoning on
// context cancellation. Exactly one side wins, so a turn is never lost and
// an abandoned waiter is never left leading.
const (
	rwWaiting   = 0
	rwAbandoned = 1
	rwClaimed   = 2
)

type readTurn struct {
	lead bool  // you lead the next round (err unset)
	err  error // result of the round that covered you
}

type readWaiter struct {
	ch    chan readTurn // buffered(1): turn delivery never blocks
	state atomic.Int32
}

type readGate struct {
	mu      sync.Mutex
	leading bool
	next    []*readWaiter
	// legacy reverts to one no-op round per read (bench baseline).
	legacy bool

	rounds    uint64 // no-op rounds run
	coalesced uint64 // reads that shared another read's round
}

// SetPerReadNoop reverts GetLinearizable's fallback to one no-op round per
// read — the pre-coalescing baseline, kept for A/B measurement (LEASES.md).
//
// The read gate carries its own mutex (always acquired before Replica.mu,
// never while holding it), so Replica.mu is deliberately not taken here.
//
//lint:allow lockguard
func (r *Replica) SetPerReadNoop(on bool) {
	r.rgate.mu.Lock()
	r.rgate.legacy = on
	r.rgate.mu.Unlock()
}

// ReadBarrier ensures every command acknowledged anywhere before this call
// started has been applied to the local store when it returns: the
// linearizable-read barrier behind GetLinearizable's non-lease path.
// Concurrent callers share no-op rounds through the read gate.
//
// Guarded by the gate's own mutex, not Replica.mu (see SetPerReadNoop).
//
//lint:allow lockguard
func (r *Replica) ReadBarrier(ctx context.Context) error {
	g := &r.rgate
	g.mu.Lock()
	if g.legacy {
		g.rounds++
		g.mu.Unlock()
		return r.readRound(ctx)
	}
	if !g.leading {
		g.leading = true
		g.mu.Unlock()
		return r.leadReadRound()
	}
	w := &readWaiter{ch: make(chan readTurn, 1)}
	g.next = append(g.next, w)
	g.mu.Unlock()

	select {
	case turn := <-w.ch:
		if turn.lead {
			return r.leadReadRound()
		}
		return turn.err
	case <-ctx.Done():
		if w.state.CompareAndSwap(rwWaiting, rwAbandoned) {
			return fmt.Errorf("smr read barrier: %w", ctx.Err())
		}
		// A turn was already committed to us; honor it so queued readers
		// behind us are not orphaned, but report our own cancellation.
		if turn := <-w.ch; turn.lead {
			r.abdicateReadLead()
		}
		return fmt.Errorf("smr read barrier: %w", ctx.Err())
	}
}

// leadReadRound runs one shared no-op round: the batch snapshot taken
// before the round is proposed is exactly the set of readers this round is
// a valid barrier for. Afterwards leadership passes to a reader that
// arrived mid-round, or lapses.
func (r *Replica) leadReadRound() error {
	g := &r.rgate
	g.mu.Lock()
	batch := g.next
	g.next = nil
	g.rounds++
	g.coalesced += uint64(len(batch))
	g.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), readRoundTimeout)
	err := r.readRound(ctx)
	cancel()

	for _, w := range batch {
		if w.state.CompareAndSwap(rwWaiting, rwClaimed) {
			w.ch <- readTurn{err: err}
		}
	}
	r.abdicateReadLead()
	return err
}

// abdicateReadLead hands the lead to the first still-waiting queued reader
// or clears it.
func (r *Replica) abdicateReadLead() {
	g := &r.rgate
	g.mu.Lock()
	for len(g.next) > 0 {
		w := g.next[0]
		g.next = g.next[1:]
		if w.state.CompareAndSwap(rwWaiting, rwClaimed) {
			g.mu.Unlock()
			w.ch <- readTurn{lead: true}
			return
		}
	}
	g.leading = false
	g.mu.Unlock()
}

// readRound replicates one bare no-op and waits until it applies locally.
// Direct Execute, never Submit: the no-op must stay a standalone value —
// folded into an OpBatch it would neither skip the decide journal entry
// nor be recognizably read-only to the durability watermark logic.
func (r *Replica) readRound(ctx context.Context) error {
	slot, err := r.Execute(ctx, Command{Op: OpNoop})
	if err != nil {
		return err
	}
	return r.WaitApplied(ctx, slot)
}
